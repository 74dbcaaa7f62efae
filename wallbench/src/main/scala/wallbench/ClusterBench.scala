package wallbench

import scala.collection.mutable
import scala.util.control.NonFatal
import repro.cluster._
import repro.core.{Distances, SeriesGen}
import repro.core.SeriesGen.presets
import repro.index.{Euclidean, IsaxIndex, QueryRun, Search, SearchParams}
import repro.spark.DistributedSearch

/** The paper's full pipeline: repeated `OdysseyCluster.run` batches through
  * Spark. Every batch regenerates, shuffles and indexes the collection
  * (twice, since BSF sharing runs a second pass), then answers the batch.
  */
object ClusterBench {

  val N = 65536
  val NQueries = 40
  val NTrain = 24
  val SetupReps = 3

  /** 16 simulated nodes, PARTIAL-4: four chunks, so one chunk task per core. */
  val Config: ClusterConfig = ClusterConfig(
    nNodes = 16, k = 4, partitioner = c => Partitioning.RandomShuffle(c),
    scheduler = PredictDn, steal = true, bsfShare = true,
    params = SearchParams(nsb = 16, threshold = 16), indexConfig = NodeBench.IndexCfg)

  /** The reports of a run as the replay's per-chunk records. */
  def groups(r: RunResult): Seq[(Int, Seq[(Int, QueryRun)])] =
    r.reports.map(rep => rep.build.chunk -> rep.queries.map(q => q.qid -> Sim.toRun(q)))

  /** `cluster.*` metrics from replays traced under `tracer`. */
  def putReplay(res: Result, replay: Sim.Replay, tracer: Tracer, reps: Int): Unit = {
    res.put("cluster.plan_ms", tracer.durations("cluster.plan").sum / reps / 1e6, reps)
    res.put("cluster.stealsim_ms", tracer.durations("cluster.stealsim").sum / reps / 1e6, reps)
    res.put("cluster.steals", replay.nSteals)
    res.put("cluster.stolen_ops", replay.stolenOps.toDouble)
    res.put("cluster.processed_ops", replay.processedOps.toDouble)
    res.put("cluster.idle_frac", replay.idleFrac)
  }

  def run(args: Args, tracer: Tracer, res: Result): Unit = {
    val spec = presets.seismic(N, seed = args.seed)
    val spark = SparkLayer.session(args.root, args.cores, Config.k)
    val listener = new SparkLayer.Listener
    spark.sparkContext.addSparkListener(listener)
    try body(args, spec, spark, listener, tracer, res)
    finally spark.stop()
  }

  private def body(args: Args, spec: SeriesGen.DatasetSpec, spark: org.apache.spark.sql.SparkSession,
                   listener: SparkLayer.Listener, tracer: Tracer, res: Result): Unit = {
    val params = Config.params
    // ---- set-up: the query batch and the cost predictor (one Spark pass over a FULL index) ----
    var queries: Array[Array[Double]] = null
    val predictors = mutable.ArrayBuffer.empty[Prediction.LinearModel]
    val setupSecs = (0 until SetupReps).map { r =>
      Protocol.time(tracer.span("bench.setup", r) {
        queries = tracer.span("core.queries", r)(SeriesGen.queries(spec, NQueries))
        predictors += tracer.span("cluster.predictor_train", r) {
          OdysseyCluster.trainPredictor(spark, spec, NTrain, params, Config.indexConfig)
        }
      })._2
    }
    res.put("setup_s", Stats.median(setupSecs), SetupReps)
    if (predictors.distinct.length != 1) res.problem(s"predictor differs across set-ups: $predictors")
    val predictor = predictors.head

    // ---- exact answers, outside any timed window ----
    val ref = {
      val data = Array.tabulate(N)(id => SeriesGen.series(spec, id.toLong))
      Check.reference(data, queries, Euclidean, params.k, args.cores)
    }
    def distOf(q: Int)(id: Long): Double = Distances.ed(queries(q), SeriesGen.series(spec, id))

    var first: RunResult = null
    var firstFp: String = null
    val batchTotals = mutable.ArrayBuffer.empty[(Double, SparkLayer.Totals)]

    /** Check a batch's answers, its replay, and that its counts repeat the first batch. */
    def verify(r: RunResult, batchNo: Int, replayTracer: Tracer): Unit = {
      val bad = (0 until NQueries).count(q => !r.answers.get(q).exists(a => Check.answerOk(a, ref(q), distOf(q))))
      res.tally(NQueries, bad)
      val replay = replayTracer.span("bench.replay", batchNo)(Sim.replay(groups(r), Config, NQueries, Some(predictor), replayTracer))
      if (replay.querySecs != r.querySecs || replay.nSteals != r.nSteals)
        res.problem(s"batch $batchNo: replay gave querySecs=${replay.querySecs} nSteals=${replay.nSteals}, " +
                    s"the run ${r.querySecs} and ${r.nSteals}")
      val fp = new Check.Fingerprint()
        .double(r.bufferSecs).double(r.treeSecs).double(r.querySecs).long(r.indexBytes).long(r.nSteals)
      (0 until NQueries).foreach(q => r.answers.getOrElse(q, Nil).foreach { case (d, id) => fp.double(d).long(id) })
      groups(r).foreach { case (chunk, runs) => fp.long(chunk); runs.foreach { case (q, run) => fp.long(q); Sim.fingerprint(fp, run) } }
      r.buildStats.foreach(b => fp.long(b.chunk).long(b.nSeries).long(b.bufferOps).long(b.treeOps).long(b.nLeaves))
      if (firstFp == null) { firstFp = fp.hex; first = r }
      else if (fp.hex != firstFp) res.problem(s"batch $batchNo: op counts, simulated times or answers differ from the first batch")
    }

    var batchNo = 0
    def batch(traced: Boolean): () => Double = () => {
      batchNo += 1
      if (traced) listener.reset(spark)
      val t0 = System.nanoTime()
      val r = try {
        if (traced) tracer.span("bench.batch", batchNo)(tracer.span("cluster.run", batchNo) {
          OdysseyCluster.run(spark, spec, queries, Config, Some(predictor))
        })
        else OdysseyCluster.run(spark, spec, queries, Config, Some(predictor))
      } catch { case NonFatal(e) => e.printStackTrace(); null }
      val secs = Protocol.seconds(System.nanoTime() - t0)
      if (traced) batchTotals += secs -> listener.totals(spark)
      if (r == null) res.tally(NQueries, NQueries)
      else verify(r, batchNo, if (traced) tracer else new Tracer(enabled = false))
      secs
    }

    val warm = Protocol.warmUp(minPasses = 4, maxSeconds = 40)(batch(traced = false))
    val timed = Protocol.window(args.seconds, minPasses = 5)(batch(traced = false))
    val heap = Protocol.liveHeapMb()
    Console.err.println(f"wallbench: ${warm.length} warm-up batches ${warm.map(t => f"$t%.3f").mkString(" ")} s; " +
                        f"${timed.length} timed batches ${timed.map(t => f"$t%.3f").mkString(" ")} s")
    if (first == null) { res.problem("no batch completed"); return }

    // Every query of a batch is answered when the batch's run returns.
    val perQueryUs = timed.flatMap(t => Seq.fill(NQueries)(t * 1e6))
    res.put("query_p50_us", Stats.median(perQueryUs), perQueryUs.length)
    Stats.tail(perQueryUs, 0.95) match {
      case Some(v) => res.put("query_p95_us", v, perQueryUs.length)
      case None    => res.problem(s"too few samples (${perQueryUs.length}) for query_p95_us")
    }
    res.put("queries_per_s", NQueries * timed.length / timed.sum, perQueryUs.length)
    res.put("batch_p50_s", Stats.median(timed), timed.length)
    res.put("heap_mb", heap)
    res.put("sim_query_s", first.querySecs, NQueries)
    res.put("sim_index_s", first.indexSecs)
    Check.acrossProcesses(args.root, args.stamp, s"cluster-${args.seed}", firstFp).foreach(res.problem)

    if (args.trace) {
      val traced = (1 to timed.length).map(_ => batch(traced = true)())
      res.put("trace.overhead_frac", Stats.median(traced) / Stats.median(timed) - 1, traced.length)
      SparkLayer.putTotals(res, batchTotals.toSeq)
      putReplay(res, Sim.replay(groups(first), Config, NQueries, Some(predictor), new Tracer(enabled = false)),
                tracer, traced.length)
      res.put("cluster.predictor_train_s", Stats.median(tracer.durations("cluster.predictor_train")) / 1e9, SetupReps)

      val chunkOf = Config.partitioner(Config.k).chunkOf _
      val (reports, _) = SparkLayer.probe(spark, listener, spec, chunkOf, queries, params,
                                          Config.indexConfig, reps = 2, tracer, res)
      val merged = DistributedSearch.mergeAnswers(reports, params.k)
      res.tally(NQueries, (0 until NQueries).count(q => !Check.answerOk(merged(q), ref(q), distOf(q))))

      // One chunk's index, built and searched in this JVM.
      val ids = (0 until N).filter(id => chunkOf(id.toLong) == 0)
      val chunk = ids.map(id => id.toLong -> SeriesGen.series(spec, id.toLong))
      val index = (0 until SetupReps).map(r => tracer.span("index.build", r)(IsaxIndex.build(chunk.iterator, Config.indexConfig))).last
      val runs = queries.map(q => Search.exact(index, q, params))
      Probes.index(index, queries, params, () => chunk.iterator, nBrute = 10, exactReps = 3,
                   q => runs(q).totalOps, tracer, res)
      res.put("index.build_s", Stats.median(tracer.durations("index.build")) / 1e9, SetupReps)
      res.put("index.model_mb", first.buildStats.map(_.indexBytes).sum / (1024.0 * 1024.0))
      Sim.putCounts(res, groups(first).flatMap(_._2.map(_._2)), NQueries, N)
      Probes.core(spec, chunk.take(512).map(_._2), Config.indexConfig.w, tracer, res)
    }
  }
}
