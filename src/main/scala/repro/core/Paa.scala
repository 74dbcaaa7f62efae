package repro.core

/** Piecewise Aggregate Approximation.
  *
  * Series length need not be divisible by the segment count: the first
  * `length % w` segments get one extra point. All lower bounds in
  * [[ISax]] weight each segment by its true point count, so the uneven
  * split stays a valid lower bound (for equal segments it reduces to the
  * classic sqrt(L/w) formula).
  */
object Paa {

  /** Per-segment point counts for a series of `length` split into `w` parts. */
  def segmentSizes(length: Int, w: Int): Array[Int] = {
    checkSplit(length, w)
    val base = length / w
    val rem  = length % w
    Array.tabulate(w)(i => if (i < rem) base + 1 else base)
  }

  private def checkSplit(length: Int, w: Int): Unit =
    require(w > 0 && length >= w, s"need length >= w > 0, got length=$length w=$w")

  /** PAA of `values` into `w` segment means; the segment sizes of
    * [[segmentSizes]], without building that array.
    */
  def of(values: Array[Double], w: Int): Array[Double] = {
    checkSplit(values.length, w)
    val base = values.length / w
    val rem  = values.length % w
    val out  = new Array[Double](w)
    var i = 0
    var p = 0
    while (i < w) {
      val size = if (i < rem) base + 1 else base
      val end = p + size
      var s = 0.0
      while (p < end) { s += values(p); p += 1 }
      out(i) = s / size
      i += 1
    }
    out
  }
}
