package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.{Cost, SeriesGen}
import repro.core.SeriesGen.DatasetSpec
import repro.index.{BuildStats, IndexConfig, IsaxIndex, QueryCtx, QueryRun, Search, SearchParams}
import repro.index.ThresholdModel.SigmoidFit

/** One processed priority queue, flattened for the driver. */
final case class PqTaskRow(batchId: Int, topLb: Double, leaves: Int, procOps: Long)

/** Per-(chunk, query) measurement: the local answer plus the op breakdown
  * the cluster simulator needs.
  */
final case class QueryStatRow(
    chunk: Int, qid: Int,
    topKDists: Seq[Double], topKIds: Seq[Long],
    approxBsf: Double, approxOps: Long,
    batchOps: Seq[Long], tasks: Seq[PqTaskRow],
    totalOps: Long, nRealDists: Long) {
  def bestDist: Double = if (topKDists.isEmpty) Double.PositiveInfinity else topKDists.head
  def bestId: Long = if (topKIds.isEmpty) -1L else topKIds.head
}

object QueryStatRow {
  /** The row of one chunk's exact search for query `qid`. */
  def of(chunk: Int, qid: Int, run: QueryRun): QueryStatRow =
    QueryStatRow(chunk, qid,
      topKDists = run.topK.map(_._1), topKIds = run.topK.map(_._2),
      approxBsf = run.approxBsf, approxOps = run.approxOps,
      batchOps = run.batchOps.toSeq,
      tasks = run.pqStats.iterator.map(s => PqTaskRow(s.batchId, s.topLb, s.leaves, s.procOps)).toSeq,
      totalOps = run.totalOps, nRealDists = run.nRealDists)
}

/** Per-chunk index build measurement. */
final case class BuildStatRow(chunk: Int, nSeries: Long, bufferOps: Long, treeOps: Long,
                              indexBytes: Long, nLeaves: Int, nInner: Int, nRoots: Int)

object BuildStatRow {
  def of(chunk: Int, bs: BuildStats): BuildStatRow =
    BuildStatRow(chunk, bs.nSeries, bs.bufferOps, bs.treeOps, bs.indexBytes, bs.nLeaves, bs.nInner, bs.nRoots)
}

final case class ChunkReport(build: BuildStatRow, queries: Seq[QueryStatRow])

/** The distributed dataflow (stages 1-2-4 of Fig. 3): one Spark task per
  * chunk generates the chunk's own series and builds its iSAX index once, so
  * no series moves between tasks, and the cached indexes answer the
  * broadcast query batch with the index-pruned exact search, emitting
  * answers and op breakdowns. When BSF sharing is on, an approximate-only
  * job over the same cached indexes first yields each query's best initial
  * BSF. Stage-3 scheduling and stage-5 merging happen on the driver
  * ([[repro.cluster.OdysseyCluster]]).
  */
object DistributedSearch {

  /** Build every chunk's index and answer `queries` on it.
    *
    * @param startBounds per-qid shared BSF bound (k-th best) from a previous
    *                    pass — empty map = LOCAL (no sharing)
    * @param thresholds  optional (sigmoid fit, division factor) pair driving
    *                    per-query TH from the local initial BSF
    */
  def run(spark: SparkSession, spec: DatasetSpec, chunkOf: Long => Int,
          queries: Array[Array[Double]], params: SearchParams,
          indexConfig: IndexConfig = IndexConfig(),
          startBounds: Map[Int, Double] = Map.empty,
          thresholds: Option[(SigmoidFit, Double)] = None): Seq[ChunkReport] =
    withIndexes(spark, spec, chunkOf, indexConfig)(answer(_, queries, params, startBounds, thresholds))

  /** Build the chunk indexes, hand them to `use`, and release them
    * afterwards, also when `use` throws.
    */
  def withIndexes[T](spark: SparkSession, spec: DatasetSpec, chunkOf: Long => Int,
                     indexConfig: IndexConfig)(use: RDD[(Int, IsaxIndex)] => T): T = {
    val indexes = buildIndexes(spark, spec, chunkOf, indexConfig)
    try use(indexes) finally indexes.unpersist(blocking = true)
  }

  /** Build one index per chunk, one task per chunk, cached in memory by the
    * first job that uses it. Each task generates exactly the series its
    * chunk owns (`SeriesGen.series` is a pure function of `(spec, id)`) and
    * streams them into `IsaxIndex.build` in ascending id order; leaf entry
    * order, and so every op count, depends on it. A chunk that owns no
    * series emits no index.
    */
  private def buildIndexes(spark: SparkSession, spec: DatasetSpec, chunkOf: Long => Int,
                           indexConfig: IndexConfig): RDD[(Int, IsaxIndex)] = {
    val nChunks = chunkCount(spec.n, chunkOf)
    spark.sparkContext.parallelize(0 until nChunks, nChunks)
      .flatMap { chunk =>
        val series = Iterator.range(0, spec.n).map(_.toLong).filter(chunkOf(_) == chunk)
          .map(id => id -> SeriesGen.series(spec, id))
        if (series.hasNext) Iterator.single(chunk -> IsaxIndex.build(series, indexConfig))
        else Iterator.empty
      }
      .persist(StorageLevel.MEMORY_ONLY)
  }

  /** One more than the largest chunk `chunkOf` assigns to ids `0 until n`,
    * read on the driver so that a bad assignment fails before any Spark job.
    */
  private def chunkCount(n: Int, chunkOf: Long => Int): Int =
    (0L until n).foldLeft(0) { (count, id) =>
      val chunk = chunkOf(id)
      require(chunk >= 0, s"negative chunk $chunk for series id $id")
      math.max(count, chunk + 1)
    }

  /** Each query's best initial BSF over all chunks: the approximate search
    * alone per (chunk, query), then the minimum per qid on the driver.
    */
  def approxBounds(indexes: RDD[(Int, IsaxIndex)], queries: Array[Array[Double]],
                   params: SearchParams): Map[Int, Double] = {
    val qs = queries // local val: avoid closing over anything non-serializable
    val perChunk = indexes.map { case (_, index) =>
      qs.map { q =>
        val ctx = new QueryCtx(q, params.mode, index.config.w, index.segSizes)
        Search.approx(index, ctx, new Cost, params.k).bound
      }
    }.collect()
    qs.indices.map(qid => qid -> perChunk.map(_(qid)).min).toMap
  }

  /** Answer `queries` exactly on every cached chunk index. */
  def answer(indexes: RDD[(Int, IsaxIndex)], queries: Array[Array[Double]], params: SearchParams,
             startBounds: Map[Int, Double],
             thresholds: Option[(SigmoidFit, Double)]): Seq[ChunkReport] = {
    val qs = queries
    val reports = indexes.map { case (chunk, index) =>
      val thFn: Double => Int = thresholds match {
        case Some((fit, factor)) => bsf => repro.index.ThresholdModel.thresholdFor(fit, bsf, factor)
        case None                => null
      }
      val queryRows = qs.indices.map { qid =>
        QueryStatRow.of(chunk, qid, Search.exact(index, qs(qid), params,
          startBound = startBounds.getOrElse(qid, Double.PositiveInfinity), thresholdOf = thFn))
      }
      ChunkReport(BuildStatRow.of(chunk, index.buildStats), queryRows)
    }
      .collect()
      .toSeq
      .sortBy(_.build.chunk)
    require(reports.nonEmpty, "no chunks produced — empty collection?")
    reports
  }

  /** Merge per-chunk top-k lists into the global exact top-k per query. */
  def mergeAnswers(reports: Seq[ChunkReport], k: Int): Map[Int, List[(Double, Long)]] =
    reports.flatMap(_.queries)
      .groupBy(_.qid)
      .view.mapValues { rows =>
        rows.flatMap(r => r.topKDists.zip(r.topKIds)).sortBy(_._1).take(k).toList
      }.toMap
}
