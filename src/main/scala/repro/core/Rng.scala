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

  /** SplitMix64 finalizer: one 64-bit mix step. */
  @inline def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Combine two keys into a stream seed (order-sensitive). */
  @inline def key(a: Long, b: Long): Long = mix(mix(a) ^ (b * 0xd1b54a32d192ed03L))

  /** A sequential generator over the SplitMix64 stream of `seed`.
    *
    * `java.util.SplittableRandom(seed)` is SplitMix64 with the golden gamma
    * and the mix constants of [[mix]], so `nextLong`, `nextDouble` and
    * `nextInt` are pure functions of the seed's SplitMix64 words.
    * `nextGaussian` is the JDK 17 `RandomGenerator` default, McFarland's
    * modified ziggurat (J. Stat. Comput. Simul. 86(7), 2016): most draws
    * take one `nextLong` and a table lookup, with no `log`, `sqrt` or `cos`.
    * Its values are the JDK's, so the repo needs JDK 17+;
    * `RngSpec` pins the first draws so that a JDK with another sampler fails
    * a named test rather than silently changing every table.
    */
  final class Stream(seed: Long) {
    private val rng = new java.util.SplittableRandom(seed)

    def nextLong(): Long = rng.nextLong()

    /** Uniform in [0, 1): the top 53 bits of `nextLong` times 2^-53. */
    def nextDouble(): Double = rng.nextDouble()

    /** Uniform integer in [0, n). */
    def nextInt(n: Int): Int = {
      require(n > 0, s"nextInt bound must be positive, got $n")
      ((nextLong() >>> 1) % n).toInt
    }

    /** Standard normal (modified ziggurat). */
    def nextGaussian(): Double = rng.nextGaussian()
  }
}
