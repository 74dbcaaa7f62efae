package wallbench

import scala.collection.mutable
import scala.util.control.NonFatal
import repro.cluster.{ClusterConfig, OdysseyCluster, Partitioning}
import repro.core.SeriesGen
import repro.core.SeriesGen.presets
import repro.index._

/** The per-node read path: one `IsaxIndex` built in this JVM, then a
  * closed loop of one client on one thread calling `Search.exact` over a
  * fixed query set, in the same order on every pass.
  */
object NodeBench {

  /** @param nBrute queries whose brute-force time the traced run measures */
  final case class Workload(name: String, n: Int, nQueries: Int, mode: Mode, k: Int,
                            nBrute: Int, setupReps: Int)

  // 32 MiB of series, past the per-core caches; index overhead dominates each
  // query. At 65,536 series the speed swung up to 2x with the heap layout a
  // young collection happened to leave, and ten seeds spread 23-30%.
  val NodeEd: Workload = Workload("node-ed", n = 16384, nQueries = 1000, Euclidean, k = 1,
                                  nBrute = 20, setupReps = 3)

  val IndexCfg: IndexConfig = IndexConfig(w = 8, leafCapacity = 32)
  def params(w: Workload): SearchParams = SearchParams(nsb = 16, threshold = 16, mode = w.mode, k = w.k)

  /** Training queries for the cost predictor the traced run times. */
  val NTrain = 24

  private final class Setup(val data: Array[Array[Double]], val index: IsaxIndex,
                            val queries: Array[Array[Double]])

  private def setup(w: Workload, spec: SeriesGen.DatasetSpec, tracer: Tracer, rep: Int): Setup =
    tracer.span("bench.setup", rep) {
      val data = tracer.span("core.series_gen", rep)(Array.tabulate(w.n)(id => SeriesGen.series(spec, id.toLong)))
      val index = tracer.span("index.build", rep) {
        IsaxIndex.build(Iterator.tabulate(w.n)(id => (id.toLong, data(id))), IndexCfg)
      }
      val queries = tracer.span("core.queries", rep)(SeriesGen.queries(spec, w.nQueries))
      new Setup(data, index, queries)
    }

  def run(w: Workload, args: Args, tracer: Tracer, res: Result): Unit = {
    val spec = presets.seismic(w.n, seed = args.seed)
    val p = params(w)
    val nq = w.nQueries
    // One node of the simulated cluster: the simulator's view of this workload.
    val node = ClusterConfig(nNodes = 1, k = 1, partitioner = c => Partitioning.RandomShuffle(c),
                             params = p, indexConfig = IndexCfg)

    // ---- set-up: generate, summarize + build, generate queries ----
    var s: Setup = null
    val builds = mutable.ArrayBuffer.empty[BuildStats]
    val setupSecs = (0 until w.setupReps).map { r =>
      s = null // let the previous collection go before timing the next one
      val (x, secs) = Protocol.time(setup(w, spec, tracer, r))
      s = x
      builds += x.index.buildStats
      secs
    }
    res.put("setup_s", Stats.median(setupSecs), w.setupReps)
    if (builds.distinct.length != 1) res.problem(s"index build statistics differ across set-ups: $builds")
    val bs = builds.head

    // ---- exact answers, outside any timed window ----
    val ref = Check.reference(s.data, s.queries, w.mode, w.k, args.cores)
    val first = new Array[QueryRun](nq)
    var firstFp: String = null

    /** Check every answer of a pass and that its counts repeat the first pass. */
    def verify(runs: Array[QueryRun], passNo: Int): Unit = {
      var bad = 0
      val fp = new Check.Fingerprint
      for (q <- 0 until nq) {
        val r = runs(q)
        if (r == null) { bad += 1; fp.long(-1) }
        else {
          if (!Check.answerOk(r.topK, ref(q), id => Check.distance(s.queries(q), s.data(id.toInt), w.mode))) bad += 1
          Sim.fingerprint(fp, r)
        }
      }
      res.tally(nq, bad)
      if (firstFp == null) { firstFp = fp.hex; Array.copy(runs, 0, first, 0, nq) }
      else if (fp.hex != firstFp) res.problem(s"pass $passNo: op counts or answers differ from the first pass")
    }

    /** One pass over the query set; per-query latencies (µs) go to `lat` when given. */
    def pass(lat: mutable.ArrayBuffer[Array[Double]], traced: Boolean, passNo: Int): Double = {
      val runs = new Array[QueryRun](nq)
      val us = new Array[Double](nq)
      def answer(q: Int): QueryRun =
        try Search.exact(s.index, s.queries(q), p) catch { case NonFatal(e) => e.printStackTrace(); null }
      val t0 = System.nanoTime()
      def loop(): Unit = {
        var q = 0
        while (q < nq) {
          val a = System.nanoTime()
          runs(q) = if (traced) tracer.span("index.exact", q)(answer(q)) else answer(q)
          us(q) = (System.nanoTime() - a) / 1e3
          q += 1
        }
      }
      if (traced) tracer.span("bench.pass", passNo)(loop()) else loop()
      val secs = Protocol.seconds(System.nanoTime() - t0)
      verify(runs, passNo)
      if (lat != null) lat += us
      secs
    }

    var passNo = 0
    def next(lat: mutable.ArrayBuffer[Array[Double]], traced: Boolean): () => Double =
      () => { passNo += 1; pass(lat, traced, passNo) }

    val warm = Protocol.warmUp(minPasses = 4, maxSeconds = 30)(next(null, traced = false))
    val lat = mutable.ArrayBuffer.empty[Array[Double]]
    val timed = Protocol.window(args.seconds, minPasses = 3)(next(lat, traced = false))
    val heap = Protocol.liveHeapMb()
    Console.err.println(f"wallbench: ${warm.length} warm-up passes ${warm.map(t => f"$t%.3f").mkString(" ")} s; " +
                        f"${timed.length} timed passes ${timed.map(t => f"$t%.3f").mkString(" ")} s")

    val samples = lat.flatten.toSeq
    res.put("query_p50_us", Stats.median(samples), samples.length)
    Stats.tail(samples, 0.95) match {
      case Some(v) => res.put("query_p95_us", v, samples.length)
      case None    => res.problem(s"too few samples (${samples.length}) for query_p95_us")
    }
    res.put("queries_per_s", nq * timed.length / timed.sum, samples.length)
    res.put("batch_p50_s", Stats.median(timed), timed.length)
    res.put("heap_mb", heap)

    // ---- simulated time of this node, from the first pass's records ----
    val group = Seq(0 -> first.indices.map(q => q -> first(q)))
    val replay = Sim.replay(group, node, nq, None, new Tracer(enabled = false))
    val simIndex = Sim.indexSecs(bs.bufferOps, bs.treeOps, node.threads)
    res.put("sim_query_s", replay.querySecs, nq)
    res.put("sim_index_s", simIndex)
    val fp = new Check.Fingerprint().double(replay.querySecs).double(simIndex).long(bs.treeOps).hex + firstFp
    Check.acrossProcesses(args.root, args.stamp, s"${w.name}-${args.seed}", fp).foreach(res.problem)

    if (args.trace) {
      // Same number of passes with a span around each call into the index.
      val traced = (1 to timed.length).map(_ => next(null, traced = true)())
      res.put("trace.overhead_frac", Stats.median(traced) / Stats.median(timed) - 1, traced.length)

      Probes.index(s.index, s.queries, p, () => Iterator.tabulate(w.n)(id => (id.toLong, s.data(id))),
                   w.nBrute, exactReps = 0, q => first(q).totalOps, tracer, res)
      Probes.core(spec, s.data.take(512).toIndexedSeq, IndexCfg.w, tracer, res)
      Sim.putCounts(res, first.toSeq, nq, w.n)
      res.put("index.build_s", Stats.median(tracer.durations("index.build")) / 1e9, w.setupReps)
      res.put("index.model_mb", bs.indexBytes / (1024.0 * 1024.0))

      val replays = (0 until 5).map(r => tracer.span("bench.replay", r)(Sim.replay(group, node, nq, None, tracer)))
      ClusterBench.putReplay(res, replays.head, tracer, replays.length)

      // The same collection and queries answered through Spark as one chunk,
      // once: a cold Spark pass on one core is slow, and this is the longest
      // part of the traced run.
      val spark = SparkLayer.session(args.root, args.cores, chunks = 1)
      try {
        val listener = new SparkLayer.Listener
        spark.sparkContext.addSparkListener(listener)
        val (reports, passes) = SparkLayer.probe(spark, listener, spec, _ => 0, s.queries, p, IndexCfg,
                                                 reps = 1, tracer, res)
        SparkLayer.putTotals(res, passes)
        val merged = repro.spark.DistributedSearch.mergeAnswers(reports, w.k)
        val bad = (0 until nq).count { q =>
          !Check.answerOk(merged(q), ref(q), id => Check.distance(s.queries(q), s.data(id.toInt), w.mode))
        }
        res.tally(nq, bad)
        tracer.span("bench.setup.predictor") {
          tracer.span("cluster.predictor_train")(OdysseyCluster.trainPredictor(spark, spec, NTrain, p, IndexCfg))
        }
        res.put("cluster.predictor_train_s", Stats.median(tracer.durations("cluster.predictor_train")) / 1e9)
      } finally spark.stop()
    }
  }
}
