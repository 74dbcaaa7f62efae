package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DataType, DoubleType, IntegerType, LongType}
import org.duckdb.DuckDBConnection
import repro.core.SeriesGen
import repro.core.SeriesGen.DatasetSpec

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  *
  * For the search pipeline, ``explodedSeries`` and ``explodedQueries`` give
  * the (id, pos, val) tables and ``BruteForceNnSql`` the brute-force 1-NN.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  /** DuckDB column type for a Spark column; anything but the three numeric
    * types is loaded as its string form.
    */
  private def sqlType(t: DataType): String = t match {
    case LongType    => "BIGINT"
    case IntegerType => "INTEGER"
    case DoubleType  => "DOUBLE"
    case _           => "VARCHAR"
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    try {
      for ((name, df) <- tables) {
        val fields = df.schema.fields
        conn.createStatement.execute(
          s"CREATE TABLE $name (${fields.map(f => s"${f.name} ${sqlType(f.dataType)}").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
        try df.collect().foreach { r =>
          app.beginRow()
          fields.indices.foreach { i =>
            if (r.isNullAt(i)) app.append(null: String)
            else fields(i).dataType match {
              case LongType    => app.append(r.getLong(i))
              case IntegerType => app.append(r.getInt(i))
              case DoubleType  => app.append(r.getDouble(i))
              case _           => app.append(r.get(i).toString)
            }
          }
          app.endRow()
        } finally app.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
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
