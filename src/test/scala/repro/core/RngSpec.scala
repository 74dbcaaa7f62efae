package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RngSpec extends AnyFunSuite {

  /** SplitMix64 written out from its definition (golden gamma, then the
    * mix): the reference `Rng.Stream`'s uniform draws must keep, independent
    * of both `Rng.mix` and `java.util.SplittableRandom`.
    */
  private final class SplitMix64(seed: Long) {
    private var state = seed
    def nextLong(): Long = {
      state += 0x9e3779b97f4a7c15L
      var z = state
      z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
      z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
      z ^ (z >>> 31)
    }
  }

  for (seed <- Seq(0L, 12345L, Rng.key(11, 42))) {
    test(s"nextLong, nextDouble and nextInt follow the SplitMix64 stream (seed $seed)") {
      val (st, ref) = (new Rng.Stream(seed), new SplitMix64(seed))
      (0 until 1000).foreach { i =>
        assert(st.nextLong() == ref.nextLong(), s"draw $i")
        assert(st.nextDouble() == (ref.nextLong() >>> 11) * 1.1102230246251565e-16, s"draw $i")
        assert(st.nextInt(1000 + i) == ((ref.nextLong() >>> 1) % (1000 + i)).toInt, s"draw $i")
      }
    }
  }

  test("Rng.Stream draws what SplittableRandom draws: 1.2M interleaved draws over 2,000 seeds") {
    var (gaussians, slow) = (0, 0)
    for (s <- 0 until 2000) {
      val seed = Rng.key(2016, s.toLong)
      val (st, sr) = (new Rng.Stream(seed), new java.util.SplittableRandom(seed))
      // A third copy of the stream, read through a generator that records the
      // first draw of each Gaussian: its low byte picks the ziggurat layer.
      val watched = new java.util.SplittableRandom(seed)
      var (fresh, first) = (false, 0L)
      val watch: java.util.random.RandomGenerator = () => {
        val u = watched.nextLong(); if (fresh) { fresh = false; first = u }; u
      }
      (0 until 600).foreach { i =>
        (i * 7 + s) % 6 match {
          case 0 =>
            assert(st.nextLong() == sr.nextLong(), s"seed $s draw $i"); watched.nextLong()
          case 1 =>
            assert(st.nextDouble() == sr.nextDouble(), s"seed $s draw $i"); watched.nextLong()
          case 2 =>
            val bound = 1 + (i * 7919) % 100000
            assert(st.nextInt(bound) == ((sr.nextLong() >>> 1) % bound).toInt, s"seed $s draw $i"); watched.nextLong()
          case _ =>
            val g = st.nextGaussian()
            assert(java.lang.Double.doubleToRawLongBits(g) == java.lang.Double.doubleToRawLongBits(sr.nextGaussian()),
              s"seed $s draw $i")
            fresh = true
            assert(watch.nextGaussian() == g)
            gaussians += 1
            if ((first & 255) >= 253) slow += 1
        }
      }
      assert(st.nextLong() == sr.nextLong(), s"seed $s: the streams end at different positions")
    }
    // 3 layers of 256 take the JDK's slow path; all of them must have been compared.
    val frac = slow.toDouble / gaussians
    assert(frac > 0.010 && frac < 0.0135, s"$slow of $gaussians Gaussian draws took the slow path")
  }

  test("walk fills the same walk and sum as a loop over SplittableRandom.nextGaussian") {
    for (s <- 0 until 1000; length <- Seq(0, 1, 7, 256, 1000)) {
      val seed = Rng.key(7, s.toLong)
      val (st, sr) = (new Rng.Stream(seed), new java.util.SplittableRandom(seed))
      val v = new Array[Double](length)
      val sum = st.walk(v)
      val ref = new Array[Double](length)
      var acc = 0.0; var refSum = 0.0
      ref.indices.foreach { i => acc += sr.nextGaussian(); ref(i) = acc; refSum += acc }
      assert(v.sameElements(ref) && sum == refSum, s"seed $s length $length")
      assert(st.nextLong() == sr.nextLong(), s"seed $s length $length: the streams end at different positions")
    }
  }

  // Every series, query and table depends on these draws. A JDK whose
  // `RandomGenerator.nextGaussian` is not the JDK 17 ziggurat fails here.
  test("nextGaussian is the JDK 17 modified ziggurat (first 8 draws of seed 12345)") {
    val expected = Seq(
      0x3fd6612b81489d39L, 0x3fd1419772ed1f63L, 0x3fe28843f6bb9a7eL, 0x3fd6cc8ba65a33fdL,
      0xbfe5a3c8f43994c6L, 0x3ff7b2a23551ffe0L, 0x3fdf56826dc7c48eL, 0x4000d4f8c35a2a53L)
    val st = new Rng.Stream(12345L)
    val got = Seq.fill(8)(java.lang.Double.doubleToRawLongBits(st.nextGaussian()))
    assert(got == expected, got.map(b => f"0x$b%016xL").mkString(", "))
  }

  test("nextGaussian is N(0,1): chi-square over the 256 iSAX regions, mean and variance") {
    val n = 1 << 20
    val counts = new Array[Long](256)
    val st = new Rng.Stream(Rng.key(3, 2016))
    var sum = 0.0; var sumSq = 0.0
    (0 until n).foreach { _ =>
      val g = st.nextGaussian()
      counts(ISax.symbol(g, 8)) += 1
      sum += g; sumSq += g * g
    }
    // ISax.breakpoints(8) are the N(0,1) quantiles at i/256: equiprobable bins.
    assert(ISax.breakpoints(8).length == 255)
    val expected = n / 256.0
    val chi2 = counts.map(c => (c - expected) * (c - expected) / expected).sum
    assert(chi2 < 330.0, s"chi-square $chi2 at 255 df (p < 0.001)")
    val mean = sum / n
    assert(math.abs(mean) < 0.005, s"mean $mean")
    assert(math.abs(sumSq / n - mean * mean - 1.0) < 0.01, s"variance ${sumSq / n - mean * mean}")
  }
}
