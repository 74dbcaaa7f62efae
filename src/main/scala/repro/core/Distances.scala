package repro.core

/** Whole-matching distance kernels: Euclidean (plain and early-abandoning),
  * LB_Keogh, and Sakoe–Chiba-banded Dynamic Time Warping. Every kernel
  * charges the [[Cost]] counter with the points / DP cells it touches.
  */
object Distances {

  /** Plain Euclidean distance. */
  def ed(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "length mismatch")
    var acc = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); acc += d * d; i += 1 }
    math.sqrt(acc)
  }

  /** Early-abandoning ED: returns PositiveInfinity as soon as the running
    * sum exceeds `bound`²; charges only the points actually touched.
    */
  def edEarlyAbandon(a: Array[Double], b: Array[Double], bound: Double, cost: Cost): Double = {
    val b2 = bound * bound
    var acc = 0.0
    var i = 0
    while (i < a.length) {
      val d = a(i) - b(i)
      acc += d * d
      i += 1
      if (acc > b2) { cost.add(i); return Double.PositiveInfinity }
    }
    cost.add(a.length)
    math.sqrt(acc)
  }

  /** LB_Keogh envelope of `q` with warping radius `r` (Sakoe–Chiba):
    * up(i) = max q[i-r..i+r], lo(i) = min q[i-r..i+r].
    */
  def envelope(q: Array[Double], r: Int): (Array[Double], Array[Double]) = {
    val n  = q.length
    val up = new Array[Double](n)
    val lo = new Array[Double](n)
    var i = 0
    while (i < n) {
      var mx = Double.NegativeInfinity
      var mn = Double.PositiveInfinity
      var j = math.max(0, i - r)
      val hi = math.min(n - 1, i + r)
      while (j <= hi) { val v = q(j); if (v > mx) mx = v; if (v < mn) mn = v; j += 1 }
      up(i) = mx; lo(i) = mn
      i += 1
    }
    (up, lo)
  }

  /** LB_Keogh(q, s) given the query envelope — a lower bound of DTW(q, s).
    * Early abandons against `bound`.
    */
  def lbKeogh(s: Array[Double], up: Array[Double], lo: Array[Double],
              bound: Double, cost: Cost): Double = {
    val b2 = bound * bound
    var acc = 0.0
    var i = 0
    while (i < s.length) {
      val v = s(i)
      val d = if (v > up(i)) v - up(i) else if (v < lo(i)) lo(i) - v else 0.0
      acc += d * d
      i += 1
      if (acc > b2) { cost.add(i); return Double.PositiveInfinity }
    }
    cost.add(s.length)
    math.sqrt(acc)
  }

  /** DTW with Sakoe–Chiba band of radius `r`, early-abandoning against
    * `bound` per DP row. Returns PositiveInfinity if the bound is exceeded.
    * Charges one op per DP cell computed.
    */
  def dtwBand(a: Array[Double], b: Array[Double], r: Int, bound: Double, cost: Cost): Double = {
    val n = a.length
    require(b.length == n, "length mismatch")
    val b2   = bound * bound
    val inf  = Double.PositiveInfinity
    var prev = Array.fill(n)(inf)
    var cur  = Array.fill(n)(inf)
    var cells = 0L
    var i = 0
    while (i < n) {
      val jLo = math.max(0, i - r)
      val jHi = math.min(n - 1, i + r)
      java.util.Arrays.fill(cur, inf)
      var rowMin = inf
      var j = jLo
      while (j <= jHi) {
        val d    = a(i) - b(j); val dd = d * d
        val best =
          if (i == 0 && j == 0) 0.0
          else {
            var m = if (j > 0) cur(j - 1) else inf
            if (i > 0) {
              if (prev(j) < m) m = prev(j)
              if (j > 0 && prev(j - 1) < m) m = prev(j - 1)
            }
            m
          }
        cur(j) = best + dd
        if (cur(j) < rowMin) rowMin = cur(j)
        cells += 1
        j += 1
      }
      if (rowMin > b2) { cost.add(cells); return inf }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    cost.add(cells)
    math.sqrt(prev(n - 1))
  }

  /** Z-normalized copy of `v`: zero mean, unit variance (series with
    * ~zero variance map to all-zeros).
    */
  def zNormalize(v: Array[Double]): Array[Double] = {
    var s = 0.0; var i = 0
    while (i < v.length) { s += v(i); i += 1 }
    zNormalizeInPlace(v.clone(), s)
  }

  /** Z-normalize `v` in place and return it. `sum` must be `v`'s sum taken
    * left to right from 0.0, so that a caller which builds `v` in one pass
    * can fold the sum into that pass and get [[zNormalize]]'s exact values.
    */
  def zNormalizeInPlace(v: Array[Double], sum: Double): Array[Double] = {
    val mean = sum / v.length
    val sd = zDivisor(v, mean)
    if (sd == 0.0) java.util.Arrays.fill(v, 0.0)
    else {
      var i = 0
      while (i < v.length) { v(i) = (v(i) - mean) / sd; i += 1 }
    }
    v
  }

  /** The divisor [[zNormalizeInPlace]] uses for `v` of mean `mean`: its
    * population standard deviation, or 0.0 below 1e-12 (a flat `v`, which
    * normalizes to zeros). A caller that writes `(v(i) - mean) / sd`, or 0.0
    * for a flat `v`, gets the normalized values without storing them.
    */
  def zDivisor(v: Array[Double], mean: Double): Double = {
    var q = 0.0; var i = 0
    while (i < v.length) { val d = v(i) - mean; q += d * d; i += 1 }
    val sd = math.sqrt(q / v.length)
    if (sd < 1e-12) 0.0 else sd
  }
}
