package repro.jobs

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments
import repro.experiments.Experiments.{Scale, Table}

/** spark-submit entry point for every evaluation exhibit: prints the
  * exhibit's tables.
  * Usage: spark-submit --class repro.jobs.Main <jar> <exhibit> [nSeries] [nQueries]
  * Fig. 12 and Fig. 17a-c run at their own sizes and ignore the scale args.
  */
object Main {

  private val exhibits = ListMap[String, (=> SparkSession, Scale) => Seq[Table]](
    "table1"   -> ((_, s) => Seq(Experiments.table1(s))),
    "fig04"    -> ((spark, s) => Seq(Experiments.fig04Prediction(spark, s))),
    "fig06"    -> { (spark, s) => val (a, b) = Experiments.fig06Threshold(spark, s); Seq(a, b) },
    "fig10"    -> ((spark, s) => Seq(Experiments.fig10Scheduling(spark, s))),
    "fig11"    -> ((spark, s) => Seq(Experiments.fig11QueryScalability(spark, s))),
    "fig12"    -> ((spark, _) => Seq(Experiments.fig12DataSize(spark),
                                     Experiments.fig12DataSize(spark, dataset = "Yan-TtI"))),
    "fig13"    -> ((spark, s) => Seq(Experiments.fig13Throughput(spark, s))),
    "fig14"    -> ((spark, s) => Seq(Experiments.fig14IndexSize(spark, s))),
    "fig15"    -> { (spark, s) => val (a, b) = Experiments.fig15Replication(spark, s); Seq(a, b) },
    "fig16"    -> ((spark, s) => Seq(Experiments.fig16RealDatasets(spark, s))),
    "fig17abc" -> { (spark, _) => val (a, b, c) = Experiments.fig17IndexScalability(spark); Seq(a, b, c) },
    "fig17d"   -> ((spark, s) => Seq(Experiments.fig17dCompetitors(spark, s))),
    "fig18"    -> ((spark, s) => Seq(Experiments.fig18Knn(spark, s))),
    "fig19"    -> ((spark, s) => Seq(Experiments.fig19Dtw(spark, s))))

  /** The scale of `<exhibit> [nSeries] [nQueries]`: None unless each size given is a positive Int. */
  def parseScale(args: Seq[String]): Option[Scale] = {
    def size(i: Int, default: Int) = args.lift(i).fold(Option(default))(_.toIntOption.filter(_ > 0))
    for (n <- size(1, Scale().n); nQueries <- size(2, Scale().nQueries)) yield Scale(n, nQueries)
  }

  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    def usage(problem: String): Nothing = {
      System.err.println(s"$problem; usage: repro.jobs.Main <exhibit> [nSeries] [nQueries]\n" +
                         s"exhibits: ${exhibits.keys.mkString(" ")}")
      sys.exit(2)
    }
    val exhibit = exhibits.getOrElse(name, usage(s"unknown exhibit '$name'"))
    val scale = parseScale(args.toSeq).getOrElse(
      usage(s"nSeries and nQueries must be positive Ints, not '${args.drop(1).mkString(" ")}'"))
    // table1 needs no session, so only the exhibits that use one start it
    lazy val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()
    try exhibit(spark, scale).foreach(t => println(t.render))
    finally SparkSession.getDefaultSession.foreach(_.stop())
  }
}
