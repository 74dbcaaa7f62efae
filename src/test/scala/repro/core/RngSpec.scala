package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RngSpec extends AnyFunSuite {

  /** The hand-written SplitMix64 loop `Rng.Stream` ran before it wrapped
    * `java.util.SplittableRandom`: the reference its uniform draws must keep.
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
