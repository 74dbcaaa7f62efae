package repro.bench

import scala.io.{Codec, Source}
import repro.SparkSpec
import repro.experiments.Experiments
import repro.experiments.Experiments.Table

/** Shared bench plumbing: print every table, check it against its golden
  * block (the rows recorded in EXPERIMENTS.md), and parse cells back for
  * assertions.
  */
trait BenchTables extends SparkSpec {

  /** Print `t` and fail unless it renders exactly as the golden block with
    * the same title.
    */
  def show(t: Table): Table = {
    val rendered = t.render
    println(); println(rendered); println()
    BenchTables.golden.get(t.title) match {
      case None =>
        fail(s"no golden block titled '${t.title}' in ${BenchTables.GoldenFile}; rendered:\n$rendered")
      case Some(g) if g != rendered =>
        fail(s"'${t.title}' differs from ${BenchTables.GoldenFile}\ngolden:\n$g\nrendered:\n$rendered")
      case _ => t
    }
  }

  /** Numeric cell accessor (row label, column header). */
  def cell(t: Table, row: String, col: String): Double = {
    val r = t.rows.find(_.head == row).getOrElse(sys.error(s"row $row missing in ${t.title}"))
    val i = t.header.indexOf(col)
    require(i >= 0, s"col $col missing in ${t.title}")
    r(i).replaceAll("[^0-9.eE+-]", "").toDouble
  }
}

object BenchTables {
  /** Test resource holding every exhibit table as rendered: a `== title ==`
    * line, then that table's `| … |` lines.
    */
  val GoldenFile = "repro/bench/tables.txt"

  /** Golden blocks keyed by title, each as [[Table.render]] prints it. */
  lazy val golden: Map[String, String] = {
    val src = Source.fromResource(GoldenFile)(Codec.UTF8)
    val lines = try src.getLines().toVector finally src.close()
    val starts = lines.indices.filter(i => lines(i).startsWith("== ")) :+ lines.length
    starts.zip(starts.tail).map { case (a, b) =>
      lines(a).stripPrefix("== ").stripSuffix(" ==") -> lines.slice(a, b).mkString("\n")
    }.toMap
  }

  /** Fig. 18's 1-NN ED sweep (Random), the baseline of both Fig. 18 (10-NN)
    * and Fig. 19 (DTW): computed once per run, by whichever suite asks first.
    */
  lazy val knn1: Table = Experiments.fig18Knn(SparkSpec.shared, k = 1)
}
