package repro.cluster

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.SeriesGen
import repro.core.SeriesGen.DatasetSpec
import repro.index.{BuildStats, IndexConfig, SearchParams, ThresholdModel}
import repro.index.ThresholdModel.SigmoidFit
import repro.spark.{ChunkReport, DistributedSearch, QueryStatRow}
import repro.spark.DistributedSearch.ChunkIndexes

/** Full Odyssey pipeline configuration (Fig. 3). Its layout is checked when
  * it is built: `k` must divide `nNodes`.
  *
  * @param nNodes      system nodes
  * @param k           PARTIAL-k replication (1 = FULL, nNodes = EQUALLY-SPLIT)
  * @param partitioner the chunking for a chunk count (see [[chunking]]), evaluated on the driver only
  * @param scheduler   intra-group query scheduler
  * @param steal       enable inter-node work stealing inside groups
  * @param bsfShare    share initial BSFs across replication groups (the
  *                    BSF-sharing channel + book-keeping array of §3.4)
  * @param params      search knobs, TH (fixed or per-query sigmoid) included
  */
final case class ClusterConfig(
    nNodes: Int,
    k: Int,
    partitioner: Int => Partitioner,
    scheduler: SchedulerKind = PredictDn,
    steal: Boolean = true,
    bsfShare: Boolean = true,
    params: SearchParams = SearchParams(),
    indexConfig: IndexConfig = IndexConfig()) {
  val layout: Layout = Layout(nNodes, k)

  /** `partitioner(layout.nChunks)`; lazy: DENSITY-AWARE and DPiSAX read the whole collection. */
  lazy val chunking: Partitioner = {
    val part = partitioner(layout.nChunks)
    require(part.nChunks == layout.nChunks,
      s"partitioner ${part.name} has ${part.nChunks} chunks; layout ${layout.name} needs ${layout.nChunks}")
    part
  }

  /** Worker threads per node: fixed by the cost model. */
  def threads: Int = CostModel.ThreadsPerNode

  /** RS-batches a victim gives away per steal: fixed, as in the paper. */
  def nSend: Int = StealSim.NSend
}

/** Everything an experiment needs: the measured chunk reports and each
  * replication group's simulation, in chunk order. The exact answers, the
  * three simulated times of the paper's evaluation (buffer, tree, query
  * answering) and the other totals are derived from those records.
  */
final case class RunResult(
    config: ClusterConfig,
    reports: Seq[ChunkReport],
    groups: Seq[StealSim.GroupResult]) {
  /** Stage 5: exact global answers, the chunks' top-k lists merged. */
  lazy val answers: Map[Int, List[(Double, Long)]] = DistributedSearch.mergeAnswers(reports, config.params.k)
  /** The slowest chunk's summarization, its nodes' threads sharing the work. */
  def bufferSecs: Double = reports.map(r => CostModel.parallelSecs(r.build.bufferOps, config.threads)).max
  /** The slowest chunk's tree inserts, its nodes' threads sharing the work. */
  def treeSecs: Double = reports.map(r => CostModel.parallelSecs(r.build.treeOps, config.threads)).max
  /** The slowest replication group's makespan. */
  def querySecs: Double = groups.map(_.makespan).max
  /** Every chunk's index, once per replica. */
  def indexBytes: Long = reports.map(_.build.indexBytes).sum * config.layout.degree
  def nSteals: Int = groups.map(_.nSteals).sum
  def indexSecs: Double = bufferSecs + treeSecs
  def totalSecs: Double = indexSecs + querySecs
  def queryStats: Seq[QueryStatRow] = reports.flatMap(_.queries)
  def buildStats: Seq[BuildStats] = reports.map(_.build)
}

object OdysseyCluster {

  /** Run the five-stage pipeline for one configuration over its own build. */
  def run(spark: SparkSession, spec: DatasetSpec, queries: Array[Array[Double]], cfg: ClusterConfig,
          predictor: Option[Prediction.LinearModel] = None): RunResult =
    run(spark, spec, queries, Seq(cfg), predictor).head

  /** Every config of a grid, in order, over one handle per distinct (`chunking`,
    * `indexConfig`), opened one at a time in order of first appearance.
    */
  def run(spark: SparkSession, spec: DatasetSpec, queries: Array[Array[Double]], cfgs: Seq[ClusterConfig],
          predictor: Option[Prediction.LinearModel]): Seq[RunResult] = {
    val builds = cfgs.map(cfg => (cfg.chunking, cfg.indexConfig))
    builds.distinct.flatMap { build =>
      val at = cfgs.indices.filter(builds(_) == build)
      at.zip(withIndexes(spark, spec, cfgs(at.head))(run(_, queries, at.map(cfgs), predictor)))
    }.sortBy(_._1).map(_._2)
  }

  /** Every config of a grid over `indexes`, in order, each distinct [[measurement]] measured once. */
  def run(indexes: ChunkIndexes, queries: Array[Array[Double]], cfgs: Seq[ClusterConfig],
          predictor: Option[Prediction.LinearModel]): Seq[RunResult] = {
    cfgs.foreach(checkHandle(indexes, _))
    val measured = mutable.Map.empty[(SearchParams, Boolean), Seq[ChunkReport]]
    cfgs.map(cfg => simulate(measured.getOrElseUpdate(measurement(cfg), measure(indexes, queries, cfg)),
                             cfg, predictor))
  }

  /** Lend `use` the chunk indexes of `spec` under `cfg`'s chunking and index config. */
  def withIndexes[T](spark: SparkSession, spec: DatasetSpec, cfg: ClusterConfig)(use: ChunkIndexes => T): T =
    DistributedSearch.withIndexes(spark, spec, cfg.chunking, cfg.indexConfig)(use)

  /** Stages 1-2-4 (Spark): every query answered exactly on every chunk index,
    * opened with `cfg`'s chunking and index config. With the BSF channel on
    * and more than one group to share across, an approximate-only job first
    * yields each query's best initial BSF, which the exact search on every
    * chunk then starts from. No scheduling or stealing happens here: the
    * reports depend on the handle (chunking and index config) and on
    * [[measurement]] only.
    */
  def measure(indexes: ChunkIndexes, queries: Array[Array[Double]],
              cfg: ClusterConfig): Seq[ChunkReport] = {
    checkHandle(indexes, cfg)
    val (params, shareBsf) = measurement(cfg)
    val bounds = if (shareBsf) DistributedSearch.approxBounds(indexes, queries, params) else Map.empty[Int, Double]
    DistributedSearch.answer(indexes, queries, params, bounds)
  }

  /** What [[measure]] reads of a config besides its handle: params, and whether BSF sharing runs. */
  private def measurement(cfg: ClusterConfig): (SearchParams, Boolean) =
    (cfg.params, cfg.bsfShare && cfg.layout.nChunks > 1)

  private def checkHandle(indexes: ChunkIndexes, cfg: ClusterConfig): Unit = {
    def named(p: Partitioner, ic: IndexConfig) = s"${p.nChunks} chunks by ${p.name}, $ic" // not a Table's chunks
    require(cfg.chunking == indexes.chunking && cfg.indexConfig == indexes.indexConfig,
      s"config: ${named(cfg.chunking, cfg.indexConfig)}; indexes: ${named(indexes.chunking, indexes.indexConfig)}")
  }

  /** [[measure]] over a batch's first `m` queries, cut from the whole batch's
    * reports: each row and each shared initial BSF depends on its own query
    * only, and `SeriesGen.queries(spec, m)` is the first `m` of a larger batch.
    */
  def firstQueries(reports: Seq[ChunkReport], m: Int): Seq[ChunkReport] =
    reports.map(r => r.copy(queries = r.queries.take(m)))

  /** Stage 3 and the timing, on the driver, from measured reports: a pure
    * function that runs no Spark job, whose result merges the answers
    * (stage 5) when they are first read. It reads `cfg.layout`, `scheduler`,
    * `steal` and `params.k`; `reports` must come from [[measure]] under a
    * config that agrees with `cfg` on what `measure` reads. It refuses no
    * reports, a chunk outside `cfg.layout`, and a report whose queries are
    * not the first report's, in order. With a PREDICT-* scheduler and no
    * `predictor`, every estimate is 1.0.
    */
  def simulate(reports: Seq[ChunkReport], cfg: ClusterConfig,
               predictor: Option[Prediction.LinearModel] = None): RunResult = {
    val chunks = reports.map(_.build.chunk)
    require(chunks.nonEmpty && chunks.forall(c => c >= 0 && c < cfg.layout.nChunks),
      s"reports of chunks [${chunks.mkString(", ")}]; config: ${cfg.layout.nChunks} chunks")
    val degree = cfg.layout.degree
    val qids = reports.head.queries.map(_.qid)
    reports.foreach { rep =>
      val own = rep.queries.map(_.qid)
      require(own == qids, s"chunk ${rep.build.chunk} reports queries [${own.mkString(", ")}]; " +
        s"chunk ${reports.head.build.chunk} reports [${qids.mkString(", ")}]")
    }
    // Stage 3: schedule and steal inside each replication group.
    val groups = reports.map { rep =>
      val byQid = rep.queries.map(q => q.qid -> q).toMap
      val est: Int => Double = q => predictor.map(_.predict(byQid(q).approxBsf)).getOrElse(1.0)
      StealSim.simulate(degree, byQid, qids, cfg.scheduler, est, steal = cfg.steal && degree > 1,
                        nSend = cfg.nSend, threads = cfg.threads, seed = 77L + rep.build.chunk)
    }
    RunResult(cfg, reports, groups)
  }

  /** The training pass of the predictor and TH fits: `nTrain` training
    * queries answered against a FULL (single-chunk) index of the collection.
    */
  def trainingRows(indexes: ChunkIndexes, nTrain: Int, params: SearchParams): Seq[QueryStatRow] = {
    require(indexes.chunking.nChunks == 1, s"training needs a FULL index, not ${indexes.chunking.nChunks} chunks")
    val queries = SeriesGen.trainingQueries(indexes.spec, nTrain)
    DistributedSearch.answer(indexes, queries, params, Map.empty).head.queries
  }

  /** Both fits regress on the initial BSF, which is +inf when a query's
    * approximate leaf holds fewer than k series.
    */
  private def checkFiniteBsf(rows: Seq[QueryStatRow]): Unit =
    rows.foreach(qs => require(java.lang.Double.isFinite(qs.approxBsf),
      s"training query ${qs.qid} starts from an initial BSF of ${qs.approxBsf}: its approximate leaf holds fewer than k series"))

  /** The paper's linear cost predictor (Fig. 4): total ops on initial BSF. */
  def fitPredictor(rows: Seq[QueryStatRow]): Prediction.LinearModel = {
    checkFiniteBsf(rows)
    Prediction.fitOls(rows.map(_.approxBsf), rows.map(_.totalOps.toDouble))
  }

  /** Fit the cost predictor on `nTrain` training queries over one FULL build. */
  def trainPredictor(spark: SparkSession, spec: DatasetSpec, nTrain: Int,
                     params: SearchParams = SearchParams(),
                     indexConfig: IndexConfig = IndexConfig()): Prediction.LinearModel =
    DistributedSearch.withIndexes(spark, spec, Partitioning.RandomShuffle(1), indexConfig)(
      indexes => fitPredictor(trainingRows(indexes, nTrain, params)))

  /** Fit the TH sigmoid (Fig. 6a) on training queries: x = initial BSF,
    * y = median uncapped PQ size (any fit in `params` is cleared).
    */
  def trainThreshold(indexes: ChunkIndexes, nTrain: Int,
                     params: SearchParams = SearchParams()): SigmoidFit = {
    val rows = trainingRows(indexes, nTrain, params.copy(threshold = Int.MaxValue, thresholdFit = None))
    checkFiniteBsf(rows)
    ThresholdModel.fit(rows.map(qs => (qs.approxBsf, ThresholdModel.medianPqSize(qs.tasks))))
  }
}
