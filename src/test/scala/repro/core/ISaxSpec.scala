package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ISaxSpec extends AnyFunSuite {

  test("normInv matches known quantiles") {
    assert(math.abs(ISax.normInv(0.5)) < 1e-9)
    assert(math.abs(ISax.normInv(0.975) - 1.959964) < 1e-4)
    assert(math.abs(ISax.normInv(0.025) + 1.959964) < 1e-4)
    assert(math.abs(ISax.normInv(0.8413447) - 1.0) < 1e-3)
  }

  for (b <- 1 to ISax.MaxBits) {
    test(s"breakpoints at $b bits: 2^$b - 1 strictly increasing symmetric values") {
      val bp = ISax.breakpoints(b)
      assert(bp.length == (1 << b) - 1)
      bp.sliding(2).foreach(p => if (p.length == 2) assert(p(0) < p(1)))
      // symmetry of the normal quantiles
      bp.indices.foreach(i => assert(math.abs(bp(i) + bp(bp.length - 1 - i)) < 1e-9))
    }
  }

  test("breakpoints are nested across cardinalities") {
    val full = ISax.breakpoints(ISax.MaxBits)
    for (b <- 1 until ISax.MaxBits; i <- ISax.breakpoints(b).indices) {
      // bit for bit: a coarse symbol is the full symbol shifted right
      assert(ISax.breakpoints(b)(i) == full(((i + 1) << (ISax.MaxBits - b)) - 1), s"b=$b i=$i")
    }
  }

  test("symbol equals a binary search over the breakpoints at every depth") {
    val bp = ISax.breakpoints(ISax.MaxBits)
    val special = Seq(0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN,
      Double.MinPositiveValue, -Double.MinPositiveValue, Double.MaxValue, -Double.MaxValue, 4.0, -4.0)
    val around = (bp.toSeq ++ (0 to 4096).map(k => -4.0 + k / 512.0))
      .flatMap(v => Seq(v, math.nextUp(v), math.nextDown(v)))
    def check(v: Double): Unit = {
      var b = 0
      while (b <= ISax.MaxBits) {
        val want = ISaxSpec.searchSymbol(v, b)
        if (ISax.symbol(v, b) != want) fail(s"v=$v bits=$b: got ${ISax.symbol(v, b)}, want $want")
        b += 1
      }
    }
    (special ++ around).foreach(check)
    val rng = new Rng.Stream(29)
    (1 to 1000000).foreach(_ => check(rng.nextGaussian()))
    (1 to 1000000).foreach(_ => check(3.0 * rng.nextGaussian()))
    (1 to 1000000).foreach(_ => check(12.0 * rng.nextDouble() - 6.0))
  }

  test("symbol at b bits equals max-cardinality symbol shifted") {
    val rng = new Rng.Stream(3)
    (1 to 500).foreach { _ =>
      val v = rng.nextGaussian() * 1.5
      val full = ISax.symbol(v, ISax.MaxBits)
      (1 until ISax.MaxBits).foreach { b =>
        assert(ISax.symbol(v, b) == (full >>> (ISax.MaxBits - b)), s"v=$v b=$b")
      }
    }
  }

  test("symbol is within [0, 2^bits) and monotone in the value") {
    for (b <- 1 to ISax.MaxBits) {
      var last = -1
      Seq(-10.0, -2.0, -0.5, 0.0, 0.5, 2.0, 10.0).foreach { v =>
        val s = ISax.symbol(v, b)
        assert(s >= 0 && s < (1 << b))
        assert(s >= last)
        last = s
      }
    }
  }

  test("region bounds bracket the value that produced the symbol") {
    val rng = new Rng.Stream(13)
    (1 to 300).foreach { _ =>
      val v = rng.nextGaussian()
      for (b <- 1 to ISax.MaxBits) {
        val s = ISax.symbol(v, b)
        assert(ISax.regionLo(s, b) <= v && v <= ISax.regionHi(s, b))
      }
    }
  }

  test("rootKey packs first bits in segment order") {
    // segment symbols 128..255 have first bit 1; below 128 first bit 0
    assert(ISax.rootKey(Array(200, 10, 130, 5)) == Integer.parseInt("1010", 2))
    assert(ISax.rootKey(Array(0, 0, 0, 0)) == 0)
    assert(ISax.rootKey(Array(255, 255)) == 3)
  }

  // --- lower-bound properties, the heart of index correctness ---

  private def randomSeries(seed: Long, l: Int): Array[Double] =
    Distances.zNormalize(Array.iterate(0.0, l)(x => x) // placeholder shape
      .zipWithIndex.map { case (_, i) =>
        val st = new Rng.Stream(Rng.key(seed, i.toLong)); st.nextGaussian()
      })

  for (trial <- 0 until 12; l <- Seq(64, 96); w <- Seq(4, 8)) {
    test(s"MINDIST(word) and PAA-PAA bounds never exceed ED (trial=$trial, L=$l, w=$w)") {
      val a = randomSeries(trial * 131L + l, l)
      val b = randomSeries(trial * 977L + w, l)
      val sizes = Paa.segmentSizes(l, w)
      val pa = Paa.of(a, w); val pb = Paa.of(b, w)
      val sb = ISax.word(pb)
      val real = Distances.ed(a, b)
      val bitsFull = Array.fill(w)(ISax.MaxBits)
      assert(ISax.mindistPaaToWord(pa, sizes, sb, bitsFull) <= real + 1e-9)
      // coarser words only loosen the bound
      for (bits <- 1 to ISax.MaxBits) {
        val word = sb.map(_ >>> (ISax.MaxBits - bits))
        val lb = ISax.mindistPaaToWord(pa, sizes, word, Array.fill(w)(bits))
        assert(lb <= real + 1e-9, s"bits=$bits")
      }
    }
  }

  for (trial <- 0 until 8) {
    test(s"envelope MINDIST never exceeds DTW (trial=$trial)") {
      val l = 64; val w = 8; val r = 5
      val a = randomSeries(trial * 313L + 7, l)
      val b = randomSeries(trial * 727L + 11, l)
      val sizes = Paa.segmentSizes(l, w)
      val (up, lo) = Distances.envelope(a, r)
      val upPaa = Paa.of(up, w); val loPaa = Paa.of(lo, w)
      val pb = Paa.of(b, w); val sb = ISax.word(pb)
      val dtw = Distances.dtwBand(a, b, r, Double.PositiveInfinity, new Cost)
      assert(ISax.mindistEnvToWord(upPaa, loPaa, sizes, sb, Array.fill(w)(ISax.MaxBits)) <= dtw + 1e-9)
    }
  }

  test("MINDIST of a word against a value inside its region is zero") {
    val w = 4; val l = 16
    val v = Array.fill(l)(0.1)
    val paa = Paa.of(v, w)
    val word = ISax.word(paa)
    val lb = ISax.mindistPaaToWord(paa, Paa.segmentSizes(l, w), word, Array.fill(w)(ISax.MaxBits))
    assert(lb == 0.0)
  }
}

object ISaxSpec {

  /** The symbol as a binary search over the breakpoints at `bits`: the
    * number of breakpoints at or below `v` (0 for NaN).
    */
  def searchSymbol(v: Double, bits: Int): Int = {
    val bp = ISax.breakpoints(bits)
    var lo = 0
    var hi = bp.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (bp(mid) <= v) lo = mid + 1 else hi = mid
    }
    lo
  }
}
