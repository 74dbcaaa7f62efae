package repro.core

/** Deterministic, splittable pseudo-randomness.
  *
  * Every synthetic series, query, and simulator decision in this repo is a
  * pure function of (seed, id) via SplitMix64, so the Spark side, the DuckDB
  * oracle, and the cluster simulator all see byte-identical data regardless
  * of partitioning or evaluation order (on any JDK 17+ that keeps the JDK's
  * ziggurat sampler; see [[Stream]]).
  */
object Rng {

  /** SplitMix64's golden gamma: the stream's state advances by it per draw. */
  private final val Gamma = 0x9e3779b97f4a7c15L

  /** SplitMix64 finalizer: one 64-bit mix step. */
  @inline def mix(z0: Long): Long = {
    var z = z0 + Gamma
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Combine two keys into a stream seed (order-sensitive). */
  @inline def key(a: Long, b: Long): Long = mix(mix(a) ^ (b * 0xd1b54a32d192ed03L))

  /** Layers of the JDK 17 normal ziggurat whose draws take the fast path. */
  private final val FastLayers = 253

  /** The JDK's `normalX` for the fast layers, read through the public
    * `RandomGenerator.nextGaussian`: a generator whose one draw is
    * `2^62 | i` (the low byte `i` selects the layer; as a double it is 2^62
    * exactly) yields `normalX(i) · 2^62`. A sampler that asks for a second
    * draw is not the JDK 17 ziggurat, and fails here rather than loop.
    */
  private val zigguratX: Array[Double] = Array.tabulate(FastLayers) { i =>
    var draws = 0
    val probe: java.util.random.RandomGenerator = () => {
      draws += 1
      require(draws == 1, s"RandomGenerator.nextGaussian took a second draw in layer $i: not the JDK 17 ziggurat")
      (1L << 62) | i
    }
    probe.nextGaussian() / (1L << 62).toDouble
  }

  /** A sequential generator over the SplitMix64 stream of `seed`.
    *
    * `nextLong`, `nextDouble` and `nextInt` equal
    * `java.util.SplittableRandom(seed)`'s draws: the same golden gamma and
    * the mix constants of [[mix]]. `nextGaussian` is the JDK 17
    * `RandomGenerator` default, McFarland's modified ziggurat (J. Stat.
    * Comput. Simul. 86(7), 2016). Its fast path (253 of 256 draws: one
    * `nextLong`, a table lookup and a multiply) runs inline here; the rest
    * hand that draw and the stream after it to the JDK's own method. So
    * the values are the JDK's, and the repo needs JDK 17+; `RngSpec` pins
    * the first draws so that a JDK with another sampler fails a named test
    * rather than silently changing every table.
    */
  final class Stream(seed: Long) {
    private var state = seed

    def nextLong(): Long = { val s = state; state = s + Gamma; mix(s) }

    /** Uniform in [0, 1): the top 53 bits of `nextLong` times 2^-53. */
    def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16

    /** Uniform integer in [0, n). */
    def nextInt(n: Int): Int = {
      require(n > 0, s"nextInt bound must be positive, got $n")
      ((nextLong() >>> 1) % n).toInt
    }

    /** Standard normal (modified ziggurat). */
    def nextGaussian(): Double = {
      val u = nextLong()
      val layer = (u & 255).toInt
      if (layer < FastLayers) zigguratX(layer) * u.toDouble else slowGaussian(u)
    }

    /** Fill `v` with a random walk of `nextGaussian` steps (`v(i)` is the
      * sum of the first `i + 1`) and return the sum of its values, adding
      * in the same order as a loop over `nextGaussian` would.
      */
    def walk(v: Array[Double]): Double = {
      val x = zigguratX
      var s = state
      var acc = 0.0; var sum = 0.0
      var i = 0
      while (i < v.length) {
        val u = mix(s)
        s += Gamma
        val layer = (u & 255).toInt
        val g =
          if (layer < FastLayers) x(layer) * u.toDouble
          else { state = s; val slow = slowGaussian(u); s = state; slow }
        acc += g; v(i) = acc; sum += acc; i += 1
      }
      state = s
      sum
    }

    /** The JDK's `nextGaussian` over a generator that returns `u`, then continues this stream. */
    private def slowGaussian(u: Long): Double = {
      if (resume == null) resume = new Resume
      resume.pending = true
      resume.first = u
      resume.nextGaussian()
    }

    /** The slow path's adapter, made on its first use and reused by this stream. */
    private var resume: Resume = _

    private final class Resume extends java.util.random.RandomGenerator {
      var pending = false
      var first = 0L
      def nextLong(): Long = if (pending) { pending = false; first } else Stream.this.nextLong()
    }
  }
}
