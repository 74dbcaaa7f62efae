package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.baselines.Competitors
import repro.cluster._
import repro.core.SeriesGen
import repro.core.SeriesGen.DatasetSpec
import repro.index.{Dtw, IndexConfig, SearchParams}
import repro.spark.DistributedSearch.ChunkIndexes

/** One experiment runner per evaluation exhibit (Table 1, Figs. 4-19).
  *
  * Each runner returns a rendered [[Table]] of the numbers the paper plots;
  * the bench suites print these tables (recorded in EXPERIMENTS.md) and
  * assert the paper's qualitative claims; the spark-submit jobs print them
  * standalone. Sizes default to reproduction scale (10^3-10^4 series) and
  * can be scaled through `Scale`. Inside an exhibit, every run over the same
  * spec, chunking and index config shares one build of the chunk indexes.
  */
object Experiments {

  /** Reproduction-scale knobs (override for bigger runs via jobs args). */
  final case class Scale(n: Int = 4096, nQueries: Int = 40)

  private val NTrain = 24 // training queries of the cost predictor and the TH fit

  final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    def render: String = {
      val all = header +: rows
      val widths = header.indices.map(i => all.map(r => r(i).length).max)
      def line(r: Seq[String]): String =
        r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
    }
  }

  private def f(x: Double): String =
    if (x == 0) "0"
    else if (x >= 100) f"$x%.1f"
    else if (x >= 0.01) f"$x%.4f"
    else f"$x%.3e" // keep tiny sim-times resolvable for ratio checks

  private val ic = IndexConfig(w = 8, leafCapacity = 32)

  // Odyssey always answers with thresholded priority queues; a modest fixed
  // TH stands in for the per-query sigmoid outside Fig. 6 (fine-grained
  // queues drive both intra-node balance and steal granularity)
  private val sp = SearchParams(threshold = 16)

  private def rs(k: Int): Partitioner = Partitioning.RandomShuffle(k)

  /** FULL replication: one chunk, whatever the node count. */
  private def full(nNodes: Int = 1) = ClusterConfig(nNodes, 1, rs, indexConfig = ic)

  /** Work stealing under `scheduler`: WORK-STEAL with DYNAMIC, WORK-STEAL-PREDICT with PREDICT-DN. */
  private def workSteal(nNodes: Int, k: Int, params: SearchParams = sp, scheduler: SchedulerKind = Dynamic) =
    ClusterConfig(nNodes, k, rs, scheduler, params = params, indexConfig = ic)

  /** One build of `spec` in `k` chunks over `nNodes` nodes, answering no query. */
  private def built(spark: SparkSession, spec: DatasetSpec, nNodes: Int, k: Int): RunResult =
    OdysseyCluster.run(spark, spec, Array.empty[Array[Double]],
                       ClusterConfig(nNodes, k, rs, bsfShare = false, indexConfig = ic))

  private def predictor(full: ChunkIndexes) =
    OdysseyCluster.fitPredictor(OdysseyCluster.trainingRows(full, NTrain, SearchParams()))

  // ---------------------------------------------------------------- Table 1
  def table1(s: Scale = Scale()): Table = {
    val paper = Map(
      "Random" -> ("100M-1600M", 256, "100-1600 GB"), "Seismic" -> ("100M", 256, "100 GB"),
      "Astro" -> ("270M", 256, "265 GB"), "Deep" -> ("1B", 96, "358 GB"),
      "Sift" -> ("1B", 128, "477 GB"), "Yan-TtI" -> ("1B", 200, "800 GB"))
    Table("Table 1: datasets (paper vs reproduction scale)",
      Seq("dataset", "paper #series", "paper len", "paper size", "repro #series", "repro len", "repro size MB"),
      SeriesGen.presets.all.map { name =>
        val spec = SeriesGen.presets.byName(name, s.n)
        val (pn, pl, ps) = paper(name)
        Seq(name, pn, pl.toString, ps, spec.n.toString, spec.length.toString,
            f"${spec.sizeBytes / 1e6}%.1f")
      })
  }

  // ----------------------------------------------------------------- Fig. 4
  /** Linear regression of query cost on initial BSF (Seismic). */
  def fig04Prediction(spark: SparkSession, s: Scale = Scale()): Table = {
    val spec = SeriesGen.presets.seismic(s.n)
    val stats = OdysseyCluster.withIndexes(spark, spec, full())(
      OdysseyCluster.trainingRows(_, NTrain * 2, SearchParams()))
    val m = OdysseyCluster.fitPredictor(stats)
    val sample = stats.sortBy(_.approxBsf).grouped(math.max(1, stats.length / 8)).map(_.head).toSeq
    Table("Fig. 4: execution-cost vs initial BSF (Seismic), linear fit",
      Seq("initial BSF", "measured ops", "predicted ops"),
      sample.map(q => Seq(f(q.approxBsf), q.totalOps.toString,
                          f"${m.predict(q.approxBsf)}%.0f")) :+
        Seq(s"slope=${f(m.slope)}", s"intercept=${f(m.intercept)}", f"r2=${m.r2}%.3f"))
  }

  // ----------------------------------------------------------------- Fig. 6
  /** Sigmoid TH fit + division-factor sweep (Seismic). */
  def fig06Threshold(spark: SparkSession, s: Scale = Scale()): (Table, Table) = {
    val spec = SeriesGen.presets.seismic(s.n)
    val queries = SeriesGen.queries(spec, s.nQueries)
    val factors = Seq(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    // the TH training pass and every factor run share one FULL build
    val (fit, results) = OdysseyCluster.withIndexes(spark, spec, full()) { indexes =>
      val fit = OdysseyCluster.trainThreshold(indexes, NTrain)
      (fit, OdysseyCluster.run(indexes, queries, factors.map(factor => full().copy(
        scheduler = Static, steal = false, params = SearchParams(thresholdFit = Some((fit, factor))))), None))
    }
    val rows = factors.zip(results).map { case (factor, r) => Seq(factor.toInt.toString, f(r.querySecs)) }
    val fitTable = Table("Fig. 6a: sigmoid fit of median PQ size vs initial BSF (Seismic)",
      Seq("m", "M", "b", "c", "d"),
      Seq(Seq(f(fit.m), f(fit.M), f(fit.b), f(fit.c), f(fit.d))))
    (fitTable, Table("Fig. 6b: query time vs TH division factor (Seismic, 1 node)",
                     Seq("division factor", "query secs (sim)"), rows))
  }

  // ---------------------------------------------------------------- Fig. 10
  /** Scheduling algorithms on Seismic, FULL replication, vs node count. */
  def fig10Scheduling(spark: SparkSession, s: Scale = Scale()): Table = {
    val nodes = Seq(1, 2, 4, 8, 16)
    val spec = SeriesGen.presets.seismic(s.n)
    val queries = SeriesGen.queries(spec, s.nQueries)
    val algos: Seq[(String, SchedulerKind, Boolean)] = Seq(
      ("STATIC", Static, false), ("DYNAMIC", Dynamic, false),
      ("PREDICT-ST-UNSORTED", PredictStUnsorted, false), ("PREDICT-ST", PredictSt, false),
      ("PREDICT-DN", PredictDn, false),
      ("WORK-STEAL", Dynamic, true), ("WORK-STEAL-PREDICT", PredictDn, true))
    // FULL: one chunk at every node count, so the grid runs over the predictor's build
    val base = full().copy(params = sp)
    val cfgs = for ((_, kind, steal) <- algos; nn <- nodes)
      yield base.copy(nNodes = nn, scheduler = kind, steal = steal)
    val secs = OdysseyCluster.withIndexes(spark, spec, base)(
      indexes => OdysseyCluster.run(indexes, queries, cfgs, Some(predictor(indexes)))).map(r => f(r.querySecs))
    val rows = algos.map(_._1).zip(secs.grouped(nodes.size)).map { case (name, times) => name +: times }
    Table("Fig. 10: scheduling algorithms, Seismic, FULL replication (query secs)",
          "algorithm" +: nodes.map(n => s"$n nodes"), rows)
  }

  // ---------------------------------------------------------------- Fig. 11
  /** Query-count scalability: j nodes answering j x q0 queries (Random). */
  def fig11QueryScalability(spark: SparkSession, s: Scale = Scale()): Table = {
    val q0 = 25
    val spec = SeriesGen.presets.random(s.n)
    val rows = for ((name, k) <- Seq(("FULL", 1), ("PARTIAL-2", 2), ("PARTIAL-4", 4))) yield {
      val cfg = workSteal(k, k)
      // k chunks at every node count: one measurement of the largest batch per row
      val reports = OdysseyCluster.withIndexes(spark, spec, cfg)(
        OdysseyCluster.measure(_, SeriesGen.queries(spec, q0 * 8), cfg))
      name +: Seq(1, 2, 4, 8).map { j =>
        if (k > j) "-"
        else f(OdysseyCluster.simulate(OdysseyCluster.firstQueries(reports, q0 * j), cfg.copy(nNodes = j)).querySecs)
      }
    }
    Table(s"Fig. 11: WORK-STEAL, j nodes answering j*$q0 queries (Random, query secs)",
          "strategy" +: Seq(1, 2, 4, 8).map(j => s"$j nodes/${j * q0}q"), rows)
  }

  // ---------------------------------------------------------------- Fig. 12
  /** Query time vs dataset size, 8 nodes, per replication strategy. */
  def fig12DataSize(spark: SparkSession, dataset: String = "Random"): Table = {
    val sizes = Seq(1024, 2048, 4096, 8192)
    val rows = for (k <- Seq(1, 2, 4, 8)) yield Layout(8, k).name +: sizes.map { n =>
      val spec = SeriesGen.presets.byName(dataset, n)
      f(OdysseyCluster.run(spark, spec, SeriesGen.queries(spec, 25), workSteal(8, k)).querySecs)
    }
    Table(s"Fig. 12: query secs for 25 queries vs dataset size ($dataset, 8 nodes)",
          "strategy" +: sizes.map(n => s"n=$n"), rows)
  }

  // ---------------------------------------------------------------- Fig. 13
  /** Throughput (queries/sec) on Random, FULL replication, WORK-STEAL. */
  def fig13Throughput(spark: SparkSession, s: Scale = Scale()): Table = {
    val spec = SeriesGen.presets.random(s.n)
    val queries = SeriesGen.queries(spec, s.nQueries)
    val cfgs = Seq(1, 2, 4, 8, 16).map(workSteal(_, 1))
    val rows = OdysseyCluster.run(spark, spec, queries, cfgs, None).map { r =>
      Seq(r.config.nNodes.toString, f(r.querySecs), f(queries.length / r.querySecs))
    }
    Table("Fig. 13: WORK-STEAL throughput (Random, FULL)",
          Seq("nodes", "query secs", "queries/sec"), rows)
  }

  // ---------------------------------------------------------------- Fig. 14
  /** Total index size per replication strategy, 8 nodes, all datasets. */
  def fig14IndexSize(spark: SparkSession, s: Scale = Scale()): Table = {
    val header = "dataset" +: Seq(1, 2, 4, 8).map(k => Layout(8, k).name) :+ "raw data"
    val rows = SeriesGen.presets.all.map { name =>
      val spec = SeriesGen.presets.byName(name, s.n)
      val sizes = Seq(1, 2, 4, 8).map(k => f"${built(spark, spec, 8, k).indexBytes / 1e6}%.2f MB")
      name +: sizes :+ f"${spec.sizeBytes / 1e6}%.2f MB"
    }
    Table("Fig. 14: total index size, 8 nodes", header, rows)
  }

  // ---------------------------------------------------------------- Fig. 15
  /** Replication strategies on Seismic with WORK-STEAL-PREDICT: query time
    * and total time as the batch grows.
    */
  def fig15Replication(spark: SparkSession, s: Scale = Scale()): (Table, Table) = {
    val queryCounts = Seq(5, 25, 100, 200)
    val spec = SeriesGen.presets.seismic(s.n)
    def cfg(k: Int) = workSteal(8, k, scheduler = PredictDn)
    // one build per k, every batch size cut from one measurement of the
    // largest; the predictor trains on FULL's build
    val m = OdysseyCluster.withIndexes(spark, spec, cfg(1)) { fullIndexes =>
      val pred = Some(predictor(fullIndexes))
      def results(indexes: ChunkIndexes, k: Int) = {
        val reports = OdysseyCluster.measure(indexes, SeriesGen.queries(spec, queryCounts.max), cfg(k))
        queryCounts.map(nq =>
          (k, nq) -> OdysseyCluster.simulate(OdysseyCluster.firstQueries(reports, nq), cfg(k), pred))
      }
      Seq(8, 4, 2).flatMap(k => OdysseyCluster.withIndexes(spark, spec, cfg(k))(results(_, k))) ++
        results(fullIndexes, 1)
    }.toMap
    def tab(title: String, pick: RunResult => Double) = Table(title,
      "strategy" +: queryCounts.map(q => s"$q queries"),
      Seq(8, 4, 2, 1).map { k =>
        Layout(8, k).name +: queryCounts.map(nq => f(pick(m((k, nq)))))
      })
    (tab("Fig. 15a-b: query secs by replication (Seismic, WORK-STEAL-PREDICT, 8 nodes)", _.querySecs),
     tab("Fig. 15c-d: total secs (index + query) by replication (Seismic, 8 nodes)", _.totalSecs))
  }

  // ---------------------------------------------------------------- Fig. 16
  /** Replication strategies on the other real datasets, 100 queries. */
  def fig16RealDatasets(spark: SparkSession, s: Scale = Scale()): Table = {
    val rows = Seq("Astro", "Deep", "Sift", "Yan-TtI").map { name =>
      val spec = SeriesGen.presets.byName(name, s.n)
      val cfgs = Seq(8, 4, 2, 1).map(workSteal(8, _))
      name +: OdysseyCluster.run(spark, spec, SeriesGen.queries(spec, 100), cfgs, None).map(r => f(r.querySecs))
    }
    Table("Fig. 16: query secs by replication, 100 queries, 8 nodes",
          "dataset" +: Seq(8, 4, 2, 1).map(k => Layout(8, k).name), rows)
  }

  // ---------------------------------------------------------------- Fig. 17
  /** Index-build scalability: size sweep, node sweep, joint sweep. */
  def fig17IndexScalability(spark: SparkSession): (Table, Table, Table) = {
    val sizes = Seq(2048, 4096, 8192, 16384)
    def row(label: Int, r: RunResult) = Seq(label.toString, f(r.bufferSecs), f(r.treeSecs), f(r.indexSecs))
    val a = Table("Fig. 17a: index secs vs dataset size (Deep, EQUALLY-SPLIT, 16 nodes)",
      Seq("n series", "buffer secs", "tree secs", "index secs"),
      sizes.map(n => row(n, built(spark, SeriesGen.presets.deep(n), 16, 16))))
    val spec16 = SeriesGen.presets.deep(16384)
    val b = Table("Fig. 17b: index secs vs node count (Deep n=16384, EQUALLY-SPLIT)",
      Seq("nodes", "buffer secs", "tree secs", "index secs"),
      Seq(1, 2, 4, 8, 16).map(nn => row(nn, built(spark, spec16, nn, nn))))
    val c = Table("Fig. 17c: joint scaling - n and nodes grow together (Random, EQUALLY-SPLIT)",
      Seq("nodes", "n series", "buffer secs", "tree secs"),
      Seq(1, 2, 4, 8).map { j =>
        val spec = SeriesGen.presets.random(2048 * j)
        val r = built(spark, spec, j, j)
        Seq(j.toString, spec.n.toString, f(r.bufferSecs), f(r.treeSecs))
      })
    (a, b, c)
  }

  /** Fig. 17d: WORK-STEAL-PREDICT vs competitors + partitioning schemes. */
  def fig17dCompetitors(spark: SparkSession, s: Scale = Scale()): Table = {
    val nodes = Seq(4, 8)
    val spec = SeriesGen.presets.seismic(s.n)
    val queries = SeriesGen.queries(spec, s.nQueries)
    def odyssey(part: Int => Partitioner): Int => ClusterConfig = nn => ClusterConfig(nn, nn, part, indexConfig = ic)
    val partitioned = Seq[(String, Int => ClusterConfig)](
      "DMESSI" -> (Competitors.dmessi(_, spec, ic)), "DMESSI-SW-BSF" -> (Competitors.dmessiSwBsf(_, spec, ic)),
      "DPISAX" -> (Competitors.dpisax(_, spec, ic)),
      "ODYSSEY EQUALLY-SPLIT" -> odyssey(k => Partitioning.EquallySplit(spec.n.toLong, k)),
      "ODYSSEY EQUALLY-SPLIT-RS" -> odyssey(rs),
      "ODYSSEY DENSITY-AWARE" -> odyssey(k => Partitioning.densityAware(spec, k, ic.w, lambda = 16)))
    val secs = OdysseyCluster.withIndexes(spark, spec, full()) { fullIndexes =>
      val pred = Some(predictor(fullIndexes))
      val cfgs = for ((_, cfg) <- partitioned; nn <- nodes) yield cfg(nn).copy(params = sp)
      OdysseyCluster.run(spark, spec, queries, cfgs, pred) ++
        OdysseyCluster.run(fullIndexes, queries, nodes.map(full(_).copy(params = sp)), pred)
    }.map(r => f(r.querySecs))
    val names = partitioned.map(_._1) :+ "ODYSSEY FULL (WS-PREDICT)"
    Table("Fig. 17d: query secs vs competitors (Seismic)", "system" +: nodes.map(n => s"$n nodes"),
          names.zip(secs.grouped(nodes.size)).map { case (name, times) => name +: times })
  }

  // ---------------------------------------------------------------- Fig. 18
  /** 10-NN query answering (Random), replication x nodes. */
  def fig18Knn(spark: SparkSession, s: Scale = Scale(), k: Int = 10): Table = {
    val spec = SeriesGen.presets.random(s.n)
    val queries = SeriesGen.queries(spec, 25)
    knnDtwSweep(spark, spec, queries, SearchParams(k = k),
                s"Fig. 18: $k-NN query secs (Random)")
  }

  // ---------------------------------------------------------------- Fig. 19
  /** DTW with 5% warping (Random), replication x nodes. */
  def fig19Dtw(spark: SparkSession, s: Scale = Scale()): Table = {
    val spec = SeriesGen.presets.random(s.n)
    val queries = SeriesGen.queries(spec, 25)
    val r = math.max(1, (spec.length * 0.05).toInt)
    knnDtwSweep(spark, spec, queries, SearchParams(mode = Dtw(r)),
                "Fig. 19: DTW 5% warping query secs (Random)")
  }

  private def knnDtwSweep(spark: SparkSession, spec: DatasetSpec,
                          queries: Array[Array[Double]], params: SearchParams,
                          title: String): Table = {
    val nodeCounts = Seq(2, 4, 8)
    val strategies = Seq[(String, Int => Int)](
      ("FULL", _ => 1), ("PARTIAL-2", _ => 2), ("EQUALLY-SPLIT", nn => nn)) // name, chunks at nn nodes
    val cfgs = for ((_, chunks) <- strategies; nn <- nodeCounts)
      yield workSteal(nn, chunks(nn), params.copy(threshold = sp.threshold))
    val secs = OdysseyCluster.run(spark, spec, queries, cfgs, None).map(r => f(r.querySecs))
    val rows = strategies.map(_._1).zip(secs.grouped(nodeCounts.size)).map { case (name, times) => name +: times }
    Table(title, "strategy" +: nodeCounts.map(n => s"$n nodes"), rows)
  }
}
