package repro.spark

import scala.collection.immutable
import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.cluster.{Partitioner, Partitioning}
import repro.core.{Cost, SeriesGen}
import repro.core.SeriesGen.DatasetSpec
import repro.index.{BuildStats, IndexConfig, IsaxIndex, PqStat, QueryCtx, QueryRun, Search, SearchParams}

/** Per-(chunk, query) measurement: the local answer plus the op breakdown,
  * and the row the simulator reads. [[repro.cluster.StealSim]] charges
  * `approxOps` serially, the RS-batch traversal from `batchOps` (also a
  * thief's rebuild cost), and list-schedules `tasks`, the run's processed
  * priority queues in processed order as `Search.exact` recorded them; the
  * PREDICT-* estimates read `approxBsf`, and the merge `topKDists`/`topKIds`.
  */
final case class QueryStatRow(
    qid: Int, topKDists: Seq[Double], topKIds: Seq[Long],
    approxBsf: Double, approxOps: Long,
    batchOps: Seq[Long], tasks: Seq[PqStat],
    totalOps: Long, nRealDists: Long)

object QueryStatRow {
  /** The row of one chunk's exact search for query `qid`. */
  def of(qid: Int, run: QueryRun): QueryStatRow =
    QueryStatRow(qid,
      topKDists = run.topK.map(_._1), topKIds = run.topK.map(_._2),
      approxBsf = run.approxBsf, approxOps = run.approxOps,
      batchOps = run.batchOps.toSeq,
      tasks = run.pqStats.toSeq,
      totalOps = run.totalOps, nRealDists = run.nRealDists)
}

/** One chunk's measurement: its index build and its per-query rows. */
final case class ChunkReport(build: BuildStats, queries: Seq[QueryStatRow])

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

  /** Build every chunk `chunkOf` uses and answer `queries` on its index. */
  def run(spark: SparkSession, spec: DatasetSpec, chunkOf: Long => Int,
          queries: Array[Array[Double]], params: SearchParams,
          indexConfig: IndexConfig = IndexConfig()): Seq[ChunkReport] = {
    val chunks = immutable.ArraySeq.tabulate(spec.n)(id => chunkOf(id.toLong))
    withIndexes(spark, spec, Partitioning.Table("chunkOf", chunks.max + 1, chunks), indexConfig)(
      answer(_, queries, params, Map.empty))
  }

  /** The cached chunk indexes of one build, and the broadcast chunk
    * members they are built from; only [[withIndexes]] makes one.
    */
  final class ChunkIndexes private[DistributedSearch] (private[spark] val rdd: RDD[IsaxIndex],
      private[spark] val members: Broadcast[Array[Array[Long]]],
      val spec: DatasetSpec, val chunking: Partitioner, val indexConfig: IndexConfig)

  /** The one build path: check on the driver that `chunking` has a chunk
    * and the series length, broadcast each chunk's ids from
    * [[Partitioning.members]], hand the chunk indexes to `use`, built by the
    * first job over them and reused by every later one, and release the
    * indexes and the broadcast afterwards, also when `use` throws.
    */
  def withIndexes[T](spark: SparkSession, spec: DatasetSpec, chunking: Partitioner,
                     indexConfig: IndexConfig)(use: ChunkIndexes => T): T = {
    require(chunking.nChunks >= 1, s"partitioner ${chunking.name} has ${chunking.nChunks} chunks; it needs at least one")
    require(spec.length >= indexConfig.w,
      s"series of length ${spec.length} are shorter than the index's w = ${indexConfig.w} segments")
    val members = spark.sparkContext.broadcast(Partitioning.members(chunking, spec.n))
    val indexes = new ChunkIndexes(buildIndexes(spark, spec, chunking.nChunks, members, indexConfig),
                                   members, spec, chunking, indexConfig)
    try use(indexes) finally { indexes.rdd.unpersist(blocking = true); members.destroy() }
  }

  /** Every query must have `spec.length` values, all of them finite. */
  private def checkQueries(spec: DatasetSpec, queries: Array[Array[Double]]): Unit =
    queries.zipWithIndex.foreach { case (q, qid) =>
      require(q.length == spec.length, s"query $qid has ${q.length} values, the series have ${spec.length}")
      require(q.forall(java.lang.Double.isFinite), s"query $qid holds a NaN or an infinity")
    }

  /** Build one index per chunk, one task per chunk, cached in memory by the
    * first job that uses it. Partition `c` holds only the chunk number `c`,
    * so a task of any job over the handle ships no ids; the build task reads
    * `members(c)` from the broadcast and hands `IsaxIndex.build` exactly the
    * ids its chunk owns, in ascending order, generating each series inside
    * the build's parallel summarization (`SeriesGen.series` is a pure
    * function of `(spec, id)`); the build inserts in that id order, on which
    * leaf entry order, and so every op count, depends.
    */
  private def buildIndexes(spark: SparkSession, spec: DatasetSpec, nChunks: Int,
                           members: Broadcast[Array[Array[Long]]], indexConfig: IndexConfig): RDD[IsaxIndex] =
    spark.sparkContext.parallelize(0 until nChunks, nChunks)
      .flatMap(new BuildTask(spec, indexConfig, members))
      .persist(StorageLevel.MEMORY_ONLY)

  /** One chunk's index, or none; named, like [[ChunkTask]], so its fields are all that ships. */
  private final class BuildTask(spec: DatasetSpec, indexConfig: IndexConfig,
                                members: Broadcast[Array[Array[Long]]])
      extends (Int => Iterator[IsaxIndex]) with Serializable {
    def apply(chunk: Int): Iterator[IsaxIndex] = {
      val ids = members.value(chunk)
      if (ids.isEmpty) Iterator.empty
      else Iterator.single(IsaxIndex.build(chunk, ids, i => SeriesGen.series(spec, ids(i)), indexConfig))
    }
  }

  /** Each query's best initial BSF over all chunks: the approximate search
    * alone per (chunk, query), then the minimum per qid on the driver.
    */
  def approxBounds(indexes: ChunkIndexes, queries: Array[Array[Double]],
                   params: SearchParams): Map[Int, Double] = {
    val perChunk = onChunks(indexes, queries, new ApproxTask(queries, params))
    queries.indices.map(qid => qid -> perChunk.map(_(qid)).min).toMap
  }

  /** Answer `queries` exactly on every cached chunk index. A query starts
    * from its `startBounds` entry, if any (none = LOCAL, no sharing).
    * Like `approxBounds`, it checks the queries first.
    */
  def answer(indexes: ChunkIndexes, queries: Array[Array[Double]], params: SearchParams,
             startBounds: Map[Int, Double]): Seq[ChunkReport] = {
    val reports = onChunks(indexes, queries, new ExactTask(queries, params, startBounds)).sortBy(_.build.chunk)
    require(reports.nonEmpty, "no chunks produced — empty collection?")
    reports
  }

  /** One job over the cached chunk indexes, after checking `queries`: `task`
    * on every index, in partition order (a chunk with no series emits nothing).
    * A named task, unlike a lambda, keeps Spark's closure cleaner from
    * parsing class files on every job.
    */
  private def onChunks[R](indexes: ChunkIndexes, queries: Array[Array[Double]], task: ChunkTask[R]): Seq[R] = {
    checkQueries(indexes.spec, queries)
    val rdd = indexes.rdd
    rdd.sparkContext.runJob(rdd, task, rdd.partitions.indices).toSeq.flatten
  }

  /** A job's work on one chunk index. Its fields are all that ships to the executors. */
  private abstract class ChunkTask[R]
      extends ((TaskContext, Iterator[IsaxIndex]) => List[R]) with Serializable {
    def on(index: IsaxIndex): R
    final def apply(ctx: TaskContext, indexes: Iterator[IsaxIndex]): List[R] = indexes.map(on).toList
  }

  /** Each query's approximate-search bound on one index, in qid order. */
  private final class ApproxTask(queries: Array[Array[Double]], params: SearchParams)
      extends ChunkTask[Array[Double]] {
    def on(index: IsaxIndex): Array[Double] = queries.map { q =>
      val ctx = new QueryCtx(q, params.mode, index.config.w, index.segSizes)
      Search.approx(index, ctx, new Cost, params.k).bound
    }
  }

  /** One index's build stats and exact-search row per query. */
  private final class ExactTask(queries: Array[Array[Double]], params: SearchParams,
                                startBounds: Map[Int, Double]) extends ChunkTask[ChunkReport] {
    def on(index: IsaxIndex): ChunkReport =
      ChunkReport(index.buildStats, queries.indices.map { qid =>
        QueryStatRow.of(qid, Search.exact(index, queries(qid), params,
          startBound = startBounds.getOrElse(qid, Double.PositiveInfinity)))
      })
  }

  /** Merge per-chunk top-k lists into the global exact top-k per query. */
  def mergeAnswers(reports: Seq[ChunkReport], k: Int): Map[Int, List[(Double, Long)]] =
    reports.flatMap(_.queries)
      .groupBy(_.qid)
      .view.mapValues { rows =>
        rows.flatMap(r => r.topKDists.zip(r.topKIds)).sortBy(_._1).take(k).toList
      }.toMap
}
