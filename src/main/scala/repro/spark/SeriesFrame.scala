package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.SeriesGen
import repro.core.SeriesGen.DatasetSpec

/** One partitioned data series: the chunk (replication-group id) it is
  * assigned to, its id, and its z-normalized values.
  */
final case class SeriesRow(chunk: Int, id: Long, values: Array[Double])

/** DataFrame plumbing for series collections: generation into Datasets and
  * explosion into (id, pos, val) rows for the DuckDB oracle. The search
  * pipeline does not go through it: [[DistributedSearch]] generates each
  * chunk's series inside that chunk's task.
  */
object SeriesFrame {

  /** The collection as a Dataset, with chunk assignment applied: the
    * DataFrame entry point to a collection, and what the wall-clock
    * benchmark times as series generation. `chunkOf` must be a serializable
    * pure function (all [[repro.cluster.Partitioner]]s are).
    */
  def seriesDs(spark: SparkSession, spec: DatasetSpec,
               chunkOf: Long => Int): Dataset[SeriesRow] = {
    import spark.implicits._
    spark.range(spec.n.toLong)
      .map(id => SeriesRow(chunkOf(id), id, SeriesGen.series(spec, id)))
  }

  /** (id, pos, val) rows of the whole collection — oracle-side input. */
  def explodedSeries(spark: SparkSession, spec: DatasetSpec): DataFrame = {
    import spark.implicits._
    spark.range(spec.n.toLong)
      .flatMap { id =>
        SeriesGen.series(spec, id).iterator.zipWithIndex
          .map { case (v, pos) => (id, pos, v) }
      }
      .toDF("id", "pos", "val")
  }

  /** (qid, pos, val) rows for a query batch — oracle-side input. */
  def explodedQueries(spark: SparkSession, queries: Array[Array[Double]]): DataFrame = {
    import spark.implicits._
    queries.zipWithIndex
      .flatMap { case (q, qid) => q.iterator.zipWithIndex.map { case (v, pos) => (qid, pos, v) } }
      .toSeq.toDF("qid", "pos", "val")
  }

  /** DuckDB SQL computing exact 1-NN distances per query by brute force
    * over the exploded tables (`series`, `queries`), loaded with the Spark
    * column types (BIGINT / INTEGER / DOUBLE).
    */
  val BruteForceNnSql: String =
    """SELECT qid, MIN(dist) AS nndist FROM (
      |  SELECT q.qid AS qid, s.id AS id,
      |         SQRT(SUM(POWER(s.val - q.val, 2))) AS dist
      |  FROM series s JOIN queries q ON s.pos = q.pos
      |  GROUP BY q.qid, s.id
      |) d GROUP BY qid""".stripMargin
}
