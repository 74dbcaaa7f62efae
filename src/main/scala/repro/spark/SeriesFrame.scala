package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.SeriesGen
import repro.core.SeriesGen.DatasetSpec

/** One partitioned data series: the chunk (replication-group id) it is
  * assigned to, its id, and its z-normalized values.
  */
final case class SeriesRow(chunk: Int, id: Long, values: Array[Double])

/** Dataset plumbing for series collections. The search pipeline does not go
  * through it: [[DistributedSearch]] generates each chunk's series inside
  * that chunk's task.
  */
object SeriesFrame {

  /** The collection as a Dataset, with chunk assignment applied: the
    * DataFrame entry point to a collection, and what the wall-clock
    * benchmark times as series generation. `chunkOf` ships to the tasks: a
    * serializable pure function, as a case-class partitioner's `chunkOf` is.
    */
  def seriesDs(spark: SparkSession, spec: DatasetSpec,
               chunkOf: Long => Int): Dataset[SeriesRow] = {
    import spark.implicits._
    spark.range(spec.n.toLong)
      .map(id => SeriesRow(chunkOf(id), id, SeriesGen.series(spec, id)))
  }
}
