package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments
import repro.experiments.Experiments.Table

/** Shared bench plumbing: print every table (the rows recorded in
  * EXPERIMENTS.md) and parse cells back for assertions.
  */
trait BenchTables extends SparkSpec {
  def show(t: Table): Table = { println(); println(t.render); println(); t }

  /** Numeric cell accessor (row label, column header). */
  def cell(t: Table, row: String, col: String): Double = {
    val r = t.rows.find(_.head == row).getOrElse(sys.error(s"row $row missing in ${t.title}"))
    val i = t.header.indexOf(col)
    require(i >= 0, s"col $col missing in ${t.title}")
    r(i).replaceAll("[^0-9.eE+-]", "").toDouble
  }
}

object BenchTables {
  /** Fig. 18's 1-NN ED sweep (Random), the baseline of both Fig. 18 (10-NN)
    * and Fig. 19 (DTW): computed once per run, by whichever suite asks first.
    */
  lazy val knn1: Table = Experiments.fig18Knn(SparkSpec.shared, k = 1)
}
