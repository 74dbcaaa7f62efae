package repro.core

/** Synthetic data-series collections standing in for the paper's datasets
  * (Table 1).
  *
  * The paper's `Random` dataset is exactly reproduced: random walks with
  * Gaussian(0,1) steps, drawn by [[Rng.Stream.nextGaussian]] (the JDK's
  * ziggurat). The real datasets (Seismic, Astro, Deep, Sift, Yan-TtI) are
  * proprietary/too large, so each is substituted with a clustered
  * random-walk mixture whose knobs (series length, clustered fraction,
  * cluster count, noise spread) mimic the property the paper's
  * experiments exercise: *variance in query difficulty* and *density skew*
  * in iSAX space. Cluster members are contiguous in id order so that
  * contiguous EQUALLY-SPLIT chunks really do co-locate similar series
  * (the situation DENSITY-AWARE and random shuffling are designed to fix).
  *
  * Everything is a pure function of (spec, id) — see [[Rng]].
  */
object SeriesGen {

  /** A synthetic dataset family. `clusterFrac` of the `n` series belong to
    * `nClusters` clusters (center + iid Gaussian noise with per-cluster
    * sigma log-spread over [sigmaMin, sigmaMax]); the rest are pure walks.
    */
  final case class DatasetSpec(
      name: String,
      n: Int,
      length: Int,
      seed: Long,
      nClusters: Int,
      clusterFrac: Double,
      sigmaMin: Double,
      sigmaMax: Double,
  ) {
    require(n > 0 && length >= 8, s"bad spec: n=$n length=$length")
    require(clusterFrac >= 0 && clusterFrac <= 1, s"bad clusterFrac $clusterFrac")

    /** Number of clustered series. */
    val nClustered: Int = (n * clusterFrac).toInt

    /** Cluster block sizes: mildly zipfian so some clusters are dense.
      * Each effective cluster gets one series; the rest are allotted by
      * weight with round-robin remainder, so sizes always tile
      * [0, nClustered) exactly (at most nClustered clusters are used).
      */
    val clusterSizes: Array[Int] =
      if (nClusters == 0 || nClustered == 0) Array.empty
      else {
        val k = math.min(nClusters, nClustered)
        val weights = Array.tabulate(k)(j => 1.0 / math.pow(j + 1, 0.8))
        val norm = weights.sum
        val extra = nClustered - k
        val raw = weights.map(wt => (extra * wt / norm).toInt)
        var rem = extra - raw.sum
        var j = 0
        while (rem > 0) { raw(j) += 1; rem -= 1; j = (j + 1) % k }
        raw.map(_ + 1)
      }

    /** First id of each cluster block (ascending). */
    val clusterStarts: Array[Int] = clusterSizes.scanLeft(0)(_ + _).dropRight(1)

    /** Cluster of `id`, or -1 for unclustered walks. */
    def clusterOf(id: Long): Int = {
      if (id >= nClustered || clusterSizes.isEmpty) -1
      else {
        var lo = 0
        var hi = clusterStarts.length - 1
        while (lo < hi) {
          val mid = (lo + hi + 1) >>> 1
          if (clusterStarts(mid) <= id) lo = mid else hi = mid - 1
        }
        lo
      }
    }

    def sizeBytes: Long = n.toLong * length * 8

    /** Each cluster's center (a z-normalized random walk) and noise sigma,
      * computed once per spec instance; transient, so a deserialized copy
      * (a Spark task's) recomputes them on first use.
      */
    @transient lazy val centers: Array[Array[Double]] =
      Array.tabulate(clusterSizes.length)(j => normalizedWalk(new Rng.Stream(Rng.key(seed, 7000L + j)), length))
    @transient lazy val sigmas: Array[Double] = Array.tabulate(clusterSizes.length)(clusterSigma(this, _))
  }

  /** Presets mirroring Table 1's character (at reproduction scale). */
  object presets {
    def random(n: Int, length: Int = 256, seed: Long = 7): DatasetSpec =
      DatasetSpec("Random", n, length, seed, nClusters = 0, clusterFrac = 0.0, 0.0, 0.0)

    def seismic(n: Int, length: Int = 256, seed: Long = 11): DatasetSpec =
      DatasetSpec("Seismic", n, length, seed, nClusters = 20, clusterFrac = 0.6, 0.05, 0.8)

    def astro(n: Int, length: Int = 256, seed: Long = 13): DatasetSpec =
      DatasetSpec("Astro", n, length, seed, nClusters = 10, clusterFrac = 0.8, 0.03, 0.4)

    def deep(n: Int, length: Int = 96, seed: Long = 17): DatasetSpec =
      DatasetSpec("Deep", n, length, seed, nClusters = 30, clusterFrac = 0.7, 0.1, 0.6)

    def sift(n: Int, length: Int = 128, seed: Long = 19): DatasetSpec =
      DatasetSpec("Sift", n, length, seed, nClusters = 40, clusterFrac = 0.5, 0.1, 1.0)

    def yantti(n: Int, length: Int = 200, seed: Long = 23): DatasetSpec =
      DatasetSpec("Yan-TtI", n, length, seed, nClusters = 24, clusterFrac = 0.75, 0.05, 1.2)

    def byName(name: String, n: Int): DatasetSpec = name.toLowerCase match {
      case "random"            => random(n)
      case "seismic"           => seismic(n)
      case "astro"             => astro(n)
      case "deep"              => deep(n)
      case "sift"              => sift(n)
      case "yantti" | "yan-tti" => yantti(n)
      case other               => throw new IllegalArgumentException(s"unknown dataset $other")
    }

    val all: Seq[String] = Seq("Random", "Seismic", "Astro", "Deep", "Sift", "Yan-TtI")
  }

  /** A z-normalized random walk of `length` Gaussian steps. */
  private def normalizedWalk(stream: Rng.Stream, length: Int): Array[Double] = {
    val v = new Array[Double](length)
    Distances.zNormalizeInPlace(v, stream.walk(v))
  }

  /** Noise sigma of cluster `j`: log-spread over [sigmaMin, sigmaMax],
    * *descending in cluster size* — the largest cluster is the loosest.
    * (A dense AND tight cluster would make its queries expensive despite a
    * tiny initial BSF, inverting the BSF-cost correlation of Fig. 4; real
    * collections show the correlation, so the generator must not build the
    * pathology in.)
    */
  def clusterSigma(spec: DatasetSpec, j: Int): Double = {
    if (spec.nClusters <= 1) spec.sigmaMax
    else {
      val t = 1.0 - j.toDouble / (spec.nClusters - 1)
      math.exp(math.log(math.max(spec.sigmaMin, 1e-6)) * (1 - t) +
               math.log(math.max(spec.sigmaMax, 1e-6)) * t)
    }
  }

  /** The `id`-th series of the collection (z-normalized).
    *
    * Cluster members perturb their center with a *z-normalized random
    * walk* (not iid noise): walks are low-frequency, so the perturbation
    * survives PAA summarization and members remain separable by iSAX
    * lower bounds. This keeps query cost driven by the initial BSF — the
    * correlation the paper's predictor exploits (Fig. 4) — instead of by
    * raw cluster density.
    */
  def series(spec: DatasetSpec, id: Long): Array[Double] = {
    val v = new Array[Double](spec.length)
    val walkSum = new Rng.Stream(Rng.key(spec.seed, id)).walk(v)
    val j = spec.clusterOf(id)
    if (j < 0) Distances.zNormalizeInPlace(v, walkSum)
    else {
      val c = spec.centers(j)
      val sigma = spec.sigmas(j)
      // the walk's z-normalization fused into the mix: the same operations in the same order
      val mean = walkSum / v.length
      val sd = Distances.zDivisor(v, mean)
      var sum = 0.0
      var i = 0
      while (i < v.length) {
        v(i) = c(i) + sigma * (if (sd == 0.0) 0.0 else (v(i) - mean) / sd)
        sum += v(i)
        i += 1
      }
      Distances.zNormalizeInPlace(v, sum)
    }
  }

  /** The `qid`-th query. A fraction `easyFrac` are noisy copies of dataset
    * series (cheap to answer: the initial BSF is tight); the rest are pure
    * random walks far from everything (expensive: poor pruning). This mix
    * yields the difficulty variance the scheduling experiments need.
    */
  def query(spec: DatasetSpec, qid: Int, easyFrac: Double = 0.6): Array[Double] = {
    val noise = 0.15 // Gaussian noise added to an easy query's source series
    val stream = new Rng.Stream(Rng.key(spec.seed ^ 0x51ca9e5L, qid.toLong))
    if (stream.nextDouble() < easyFrac) {
      val v = series(spec, stream.nextInt(spec.n).toLong)
      var sum = 0.0
      var i = 0
      while (i < spec.length) { v(i) += noise * stream.nextGaussian(); sum += v(i); i += 1 }
      Distances.zNormalizeInPlace(v, sum)
    } else normalizedWalk(stream, spec.length)
  }

  /** A batch of queries. */
  def queries(spec: DatasetSpec, nQueries: Int): Array[Array[Double]] =
    Array.tabulate(nQueries)(q => query(spec, q))

  /** Training queries for the cost-prediction model — disjoint stream from
    * the evaluation batch (negative ids).
    */
  def trainingQueries(spec: DatasetSpec, nQueries: Int): Array[Array[Double]] =
    Array.tabulate(nQueries)(q => query(spec, -(q + 1)))
}
