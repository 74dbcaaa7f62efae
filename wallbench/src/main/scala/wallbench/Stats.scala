package wallbench

/** Order statistics for timing samples.
  *
  * Percentiles use the nearest-rank rule: the p-th percentile of n sorted
  * samples is the sample at 1-based rank ceil(p * n). A percentile above the
  * median is reported only when at least [[MinBeyond]] samples lie beyond it,
  * so a tail figure is never set by a handful of samples.
  */
object Stats {

  val MinBeyond = 10

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Samples strictly beyond the nearest-rank p-th percentile of n samples. */
  def beyond(n: Int, p: Double): Int = n - math.ceil(p * n - 1e-9).toInt

  /** The p-th percentile, or None when fewer than [[MinBeyond]] samples lie beyond it. */
  def tail(xs: Seq[Double], p: Double): Option[Double] = {
    require(p > 0 && p < 1, s"percentile $p")
    if (xs.isEmpty || beyond(xs.length, p) < MinBeyond) None
    else {
      val s = xs.sorted
      Some(s(math.max(0, math.ceil(p * s.length - 1e-9).toInt - 1)))
    }
  }
}
