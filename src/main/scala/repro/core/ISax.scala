package repro.core

/** iSAX summarization: normal-distribution breakpoints, multi-cardinality
  * symbols, and MINDIST lower bounds (Shieh & Keogh 2008).
  *
  * Breakpoints for cardinality 2^b are the standard-normal quantiles
  * Φ⁻¹(i / 2^b). They are *nested* across cardinalities, so a symbol at
  * b bits is the symbol at `maxBits` shifted right by `maxBits - b`; we
  * therefore compute each series' word once at full cardinality.
  */
object ISax {

  /** Maximum per-segment cardinality in bits (cardinality 256). */
  val MaxBits = 8

  /** Acklam's rational approximation of the standard normal quantile Φ⁻¹. */
  def normInv(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"normInv defined on (0,1), got $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                  1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                  6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                  -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                  3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5
      val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }

  /** breakpoints(b) has 2^b - 1 ascending entries Φ⁻¹(i/2^b), i = 1..2^b-1. */
  private val tables: Array[Array[Double]] = {
    val t = new Array[Array[Double]](MaxBits + 1)
    var b = 1
    while (b <= MaxBits) {
      val card = 1 << b
      t(b) = Array.tabulate(card - 1)(i => normInv((i + 1).toDouble / card))
      b += 1
    }
    t(0) = Array.empty
    t
  }

  def breakpoints(bits: Int): Array[Double] = {
    require(bits >= 0 && bits <= MaxBits, s"bits out of range: $bits")
    tables(bits)
  }

  private final val GuessLo = -4.0
  private final val GuessScale = 512.0
  private final val GuessBuckets = 4096

  /** The guess table of [[symbol]]: bucket `k` covers [-4 + k/512,
    * -4 + (k+1)/512) and holds the number of 8-bit breakpoints at or below
    * its lower edge. The narrowest gap between 8-bit breakpoints (0.0098)
    * is wider than a bucket (1/512), so each bucket holds at most one
    * breakpoint. Entry 4096 (edge 4.0) catches a `v` just below 4 whose
    * `v + 4` rounds up to 8.
    */
  private val guess: Array[Short] = Array.tabulate(GuessBuckets + 1) { k =>
    search(tables(MaxBits), GuessLo + k / GuessScale).toShort
  }

  /** Number of entries of the ascending `bp` at or below `v` (0 for NaN). */
  private def search(bp: Array[Double], v: Double): Int = {
    var lo = 0
    var hi = bp.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (bp(mid) <= v) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Symbol (region index, 0-based from the bottom) of `v` at `bits`: the
    * number of breakpoints at or below `v`. Inside [-4, 4) the 8-bit symbol
    * is guessed from its bucket and corrected against the breakpoints, so
    * it is exact even where rounding puts `v` in a neighbouring bucket;
    * outside, and for NaN, a binary search finds it. Breakpoints nest
    * exactly, so fewer bits take the 8-bit symbol shifted right.
    */
  def symbol(v: Double, bits: Int): Int = {
    if (bits < 0 || bits > MaxBits) throw new IllegalArgumentException(s"bits out of range: $bits")
    val bp = tables(MaxBits)
    val full =
      if (v >= GuessLo && v < -GuessLo) {
        var s = guess(((v - GuessLo) * GuessScale).toInt).toInt
        while (s > 0 && bp(s - 1) > v) s -= 1
        while (s < bp.length && bp(s) <= v) s += 1
        s
      } else search(bp, v)
    full >>> (MaxBits - bits)
  }

  /** Full-cardinality word (one symbol per PAA segment) at MaxBits. */
  def word(paa: Array[Double]): Array[Int] = {
    val out = new Array[Int](paa.length)
    var i = 0
    while (i < paa.length) { out(i) = symbol(paa(i), MaxBits); i += 1 }
    out
  }

  /** First-bit word packed into an Int (bit i = segment i), used as the
    * summarization-buffer / root-subtree key. Segment 0 is the highest bit
    * so the packed value orders words lexicographically by segment.
    */
  def rootKey(sax: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < sax.length) {
      k = (k << 1) | (sax(i) >>> (MaxBits - 1))
      i += 1
    }
    k
  }

  /** Region [lo, hi] of `sym` at `bits`; ±∞ at the extremes. */
  @inline def regionLo(sym: Int, bits: Int): Double =
    if (sym == 0) Double.NegativeInfinity else tables(bits)(sym - 1)

  @inline def regionHi(sym: Int, bits: Int): Double =
    if (sym == (1 << bits) - 1) Double.PositiveInfinity else tables(bits)(sym)

  /** MINDIST between a query's PAA and an iSAX word with per-segment bits.
    * Weighted by true segment sizes; valid for uneven segments. Lower bound
    * of ED(query, s) for every series s whose word matches.
    */
  def mindistPaaToWord(paa: Array[Double], segSizes: Array[Int],
                       word: Array[Int], bits: Array[Int]): Double = {
    var acc = 0.0
    var i = 0
    while (i < paa.length) {
      val b = bits(i)
      if (b > 0) {
        val sym = word(i)
        val lo  = regionLo(sym, b)
        val hi  = regionHi(sym, b)
        val v   = paa(i)
        val d   = if (v < lo) lo - v else if (v > hi) v - hi else 0.0
        acc += segSizes(i) * d * d
      }
      i += 1
    }
    math.sqrt(acc)
  }

  /** MINDIST between a query *envelope* (PAA of the LB_Keogh upper/lower
    * envelopes) and an iSAX word — lower bound of DTW(query, s) for series
    * s in the word's region (Keogh & Ratanamahatana 2005, LB_PAA).
    */
  def mindistEnvToWord(upPaa: Array[Double], loPaa: Array[Double], segSizes: Array[Int],
                       word: Array[Int], bits: Array[Int]): Double = {
    var acc = 0.0
    var i = 0
    while (i < upPaa.length) {
      val b = bits(i)
      if (b > 0) {
        val sym = word(i)
        val rlo = regionLo(sym, b)
        val rhi = regionHi(sym, b)
        val d   = if (loPaa(i) > rhi) loPaa(i) - rhi
                  else if (upPaa(i) < rlo) rlo - upPaa(i)
                  else 0.0
        acc += segSizes(i) * d * d
      }
      i += 1
    }
    math.sqrt(acc)
  }
}
