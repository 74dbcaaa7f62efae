package repro.cluster

import java.io.{NotSerializableException, ObjectOutputStream, OutputStream}
import scala.collection.{immutable, mutable}
import org.apache.spark.{ListenerBusAccess, TaskContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import repro.SparkSpec
import repro.baselines.{Competitors, Dpisax}
import repro.core.SeriesGen
import repro.core.SeriesGen.presets
import repro.index.{IndexConfig, Search, SearchParams}
import repro.spark.DistributedSearch
import repro.spark.DistributedSearch.ChunkIndexes

class OdysseyClusterSpec extends SparkSpec {

  private val n = 600
  private val spec = presets.seismic(n)
  private val queries = SeriesGen.queries(spec, 8)
  private lazy val brute: Map[Int, Double] = {
    val data = (0L until n.toLong).map(id => (id, SeriesGen.series(spec, id)))
    queries.indices.map(q => q -> Search.bruteForce(data.iterator, queries(q)).head._1).toMap
  }

  private def eqSplit(k: Int): Partitioner = Partitioning.RandomShuffle(k)

  private lazy val predictor = OdysseyCluster.trainPredictor(spark, spec, nTrain = 10)

  /** What Spark ran while `body` ran: shuffle bytes written plus read, each
    * completed stage's task count in stage order, and the tasks that read no
    * cached block. Over a handle those are the ones that built its indexes:
    * Spark adds a cached block's bytes to `bytesRead` only on a cache hit.
    */
  private final class Seen extends SparkListener {
    var shuffleBytes = 0L
    var builds = 0
    private val stages = mutable.SortedMap.empty[Int, Int]
    def stageTasks: Seq[Int] = synchronized(stages.values.toSeq)
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
      synchronized(stages(e.stageInfo.stageId) = e.stageInfo.numTasks)
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      if (e.taskMetrics != null) {
        shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten + e.taskMetrics.shuffleReadMetrics.totalBytesRead
        if (e.taskMetrics.inputMetrics.bytesRead == 0) builds += 1
      }
    }
  }

  private def seen[T](body: => T): (Seen, T) = {
    val sc = spark.sparkContext
    val listener = new Seen
    ListenerBusAccess.waitUntilEmpty(sc)
    sc.addSparkListener(listener)
    try {
      val out = body
      ListenerBusAccess.waitUntilEmpty(sc)
      (listener, out)
    } finally sc.removeSparkListener(listener)
  }

  for (k <- Seq(1, 2, 4, 8); sched <- Seq(Static, PredictDn); steal <- Seq(false, true)) {
    test(s"pipeline answers are exact (PARTIAL-$k, ${sched.name}, steal=$steal)") {
      val cfg = ClusterConfig(nNodes = 8, k = k, partitioner = eqSplit,
                              scheduler = sched, steal = steal)
      val res = OdysseyCluster.run(spark, spec, queries, cfg)
      queries.indices.foreach { q =>
        assert(math.abs(res.answers(q).head._1 - brute(q)) < 1e-9, s"q=$q")
      }
      assert(res.querySecs > 0 && res.bufferSecs > 0 && res.treeSecs > 0)
    }
  }

  for ((name, partitioner) <- Seq[(String, Int => Partitioner)](
         "RandomShuffle" -> eqSplit, "DPiSAX" -> (c => Dpisax.partition(spec, c, w = 8)))) {
    test(s"one build per run reproduces the LOCAL-then-SHARED two-pass reports ($name)") {
      val cfg = ClusterConfig(8, 4, partitioner, params = SearchParams(threshold = 16))
      val chunking = cfg.chunking
      val local = DistributedSearch.run(spark, spec, chunking.chunkOf, queries, cfg.params, cfg.indexConfig)
      val bounds = local.flatMap(_.queries).groupBy(_.qid)
        .view.mapValues(_.map(_.approxBsf).min).toMap
      val shared = DistributedSearch.withIndexes(spark, spec, chunking, cfg.indexConfig)(
        DistributedSearch.answer(_, queries, cfg.params, bounds))
      assert(shared != local)
      assert(OdysseyCluster.run(spark, spec, queries, cfg).reports == shared)
    }
  }

  for ((name, partitioner) <- Seq[(String, Int => Partitioner)](
         "RandomShuffle" -> eqSplit, "DPiSAX" -> (c => Dpisax.partition(spec, c, w = 8)))) {
    test(s"a run shuffles no bytes and builds with one task per chunk ($name)") {
      val (ran, res) = seen(OdysseyCluster.run(spark, spec, queries, ClusterConfig(8, 4, partitioner)))
      assert(res.reports.map(_.build.chunk) == (0 until 4))
      assert(ran.shuffleBytes == 0)
      // the bound job builds the cached indexes; the exact job reuses them
      assert(ran.stageTasks == Seq(4, 4))
    }
  }

  for ((name, partitioner) <- Seq[(String, Int => Partitioner)](
         "EQUALLY-SPLIT" -> (c => Partitioning.EquallySplit(4, c)), "RandomShuffle" -> eqSplit)) {
    test(s"chunks that own no series are left out and the answers stay exact ($name)") {
      val tiny = presets.seismic(4)
      val qs = SeriesGen.queries(tiny, 3)
      val cfg = ClusterConfig(8, 8, partitioner, params = SearchParams(k = 2))
      val res = OdysseyCluster.run(spark, tiny, qs, cfg)
      val owners = (0L until 4L).map(partitioner(8).chunkOf).distinct.sorted
      assert(owners.size < 8)
      assert(res.reports.map(_.build.chunk) == owners)
      val data = (0L until 4L).map(id => (id, SeriesGen.series(tiny, id)))
      qs.indices.foreach { q =>
        val brute = Search.bruteForce(data.iterator, qs(q), k = 2)
        assert(res.answers(q).map(_._2) == brute.map(_._2), s"q=$q")
        res.answers(q).zip(brute).foreach { case ((dg, _), (db, _)) => assert(math.abs(dg - db) < 1e-9) }
      }
    }
  }

  test("a bad chunk assignment fails on the driver, naming the series id") {
    val missing = Partitioning.Table("T", 2, immutable.ArraySeq.fill(n - 1)(0))
    val negative = Partitioning.Table("T", 2, immutable.ArraySeq.tabulate(n)(id => if (id == 7) -1 else 0))
    val beyond = Partitioning.Table("T", 2, immutable.ArraySeq.tabulate(n)(id => if (id == 9) 2 else 0))
    for ((part, id) <- Seq(missing -> (n - 1), negative -> 7, beyond -> 9)) {
      val (ran, e) = seen(intercept[IllegalArgumentException](
        OdysseyCluster.run(spark, spec, queries.take(1), ClusterConfig(2, 2, _ => part))))
      assert(e.getMessage.contains(s"series id $id"), e.getMessage)
      assert(ran.stageTasks.isEmpty, "a Spark job ran")
      assert(spark.sparkContext.getPersistentRDDs.isEmpty)
    }
    // a chunking with no chunks names the partitioner and its count instead
    for (part <- Seq[Partitioner](Partitioning.RandomShuffle(0), Partitioning.EquallySplit(n.toLong, 0))) {
      val (ran, e) = seen(intercept[IllegalArgumentException](
        DistributedSearch.withIndexes(spark, spec, part, IndexConfig())(_ => ())))
      assert(e.getMessage.contains(s"partitioner ${part.name} has 0 chunks"), e.getMessage)
      assert(ran.stageTasks.isEmpty, "a Spark job ran")
      assert(spark.sparkContext.getPersistentRDDs.isEmpty)
    }
  }

  test("a partitioner that cannot be serialized runs only on the driver and answers as RandomShuffle does") {
    val driverOnly = OdysseyClusterSpec.DriverOnly(2)
    intercept[NotSerializableException](new ObjectOutputStream(OutputStream.nullOutputStream()).writeObject(driverOnly))
    val cfg = ClusterConfig(4, 2, eqSplit)
    val expected = OdysseyCluster.run(spark, spec, queries, cfg)
    val res = OdysseyCluster.run(spark, spec, queries, cfg.copy(partitioner = OdysseyClusterSpec.DriverOnly(_)))
    assert(res.copy(config = cfg) == expected)
    queries.indices.foreach(q => assert(math.abs(res.answers(q).head._1 - brute(q)) < 1e-9, s"q=$q"))
    assert(DistributedSearch.run(spark, spec, driverOnly.chunkOf, queries, SearchParams()) ==
             DistributedSearch.run(spark, spec, eqSplit(2).chunkOf, queries, SearchParams()))
  }

  test("series shorter than the index's w fail on the driver, naming both") {
    val short = presets.seismic(n, length = 12)
    val cfg = ClusterConfig(2, 2, eqSplit, indexConfig = IndexConfig(w = 16))
    val (ran, e) = seen(intercept[IllegalArgumentException](
      OdysseyCluster.run(spark, short, SeriesGen.queries(short, 1), cfg)))
    assert(e.getMessage.contains("length 12") && e.getMessage.contains("w = 16"), e.getMessage)
    assert(ran.stageTasks.isEmpty, "a Spark job ran")
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
  }

  test("a short or NaN query fails on the driver, naming the qid") {
    val short = queries.take(3) :+ queries(3).take(200)
    val nan = queries.take(2) :+ queries(2).updated(17, Double.NaN)
    val cfg = ClusterConfig(4, 2, eqSplit)
    for ((bad, qid) <- Seq(short -> 3, nan -> 2);
         body <- Seq[() => Any](() => OdysseyCluster.run(spark, spec, bad, cfg),
                                () => OdysseyCluster.withIndexes(spark, spec, cfg)(OdysseyCluster.measure(_, bad, cfg)),
                                () => DistributedSearch.run(spark, spec, eqSplit(2).chunkOf, bad, SearchParams()))) {
      val (ran, e) = seen(intercept[IllegalArgumentException](body()))
      assert(e.getMessage.contains(s"query $qid "), e.getMessage)
      assert(ran.stageTasks.isEmpty, "a Spark job ran")
      assert(spark.sparkContext.getPersistentRDDs.isEmpty)
    }
  }

  test("cached chunk indexes are released after every run, also a failing one") {
    def cached = spark.sparkContext.getPersistentRDDs
    val cfg = ClusterConfig(4, 2, eqSplit)
    OdysseyCluster.run(spark, spec, queries.take(2), cfg)
    assert(cached.isEmpty)
    OdysseyCluster.withIndexes(spark, spec, cfg)(OdysseyCluster.measure(_, queries.take(2), cfg))
    assert(cached.isEmpty)
    DistributedSearch.run(spark, spec, eqSplit(2).chunkOf, queries.take(2), SearchParams())
    assert(cached.isEmpty)
    intercept[IllegalStateException](OdysseyCluster.withIndexes(spark, spec, cfg) { indexes =>
      OdysseyCluster.measure(indexes, queries.take(2), cfg) // builds and caches the indexes
      throw new IllegalStateException("after a job")
    })
    assert(cached.isEmpty)
  }

  test("one handle builds each chunk once, however many jobs run over it") {
    val split = ClusterConfig(4, 4, eqSplit)
    val (splitRan, _) = seen(OdysseyCluster.withIndexes(spark, spec, split) { indexes =>
      for (qs <- Seq(queries.take(3), queries.drop(3)); share <- Seq(true, false))
        OdysseyCluster.measure(indexes, qs, split.copy(bsfShare = share))
    })
    assert(splitRan.stageTasks == Seq.fill(6)(4)) // two sharing measurements of two jobs, two of one
    assert(splitRan.builds == 4)
    val full = ClusterConfig(1, 1, eqSplit)
    val (fullRan, _) = seen(OdysseyCluster.withIndexes(spark, spec, full) { indexes =>
      OdysseyCluster.trainingRows(indexes, 6, SearchParams())
      OdysseyCluster.trainingRows(indexes, 4, SearchParams(threshold = 16))
      OdysseyCluster.measure(indexes, queries, full.copy(nNodes = 4))
    })
    assert(fullRan.stageTasks.size > 1 && fullRan.builds == 1)
  }

  test("a handle refuses a config of another chunk count or index config before any stage") {
    val cfg = ClusterConfig(4, 2, eqSplit)
    val split = cfg.copy(partitioner = c => Partitioning.EquallySplit(n.toLong, c))
    for (other <- Seq(cfg.copy(k = 4), cfg.copy(k = 1), split, cfg.copy(indexConfig = IndexConfig(leafCapacity = 32)));
         body <- Seq[ChunkIndexes => Any](OdysseyCluster.measure(_, queries, other),
                                          // anywhere in a grid, also after a config the handle fits
                                          OdysseyCluster.run(_, queries, Seq(cfg, other), None))) {
      val (ran, e) = seen(intercept[IllegalArgumentException](OdysseyCluster.withIndexes(spark, spec, cfg)(body)))
      assert(e.getMessage.contains("indexes: 2 chunks by EQUALLY-SPLIT-RS, "), e.getMessage)
      if (other eq split) assert(e.getMessage.contains("config: 2 chunks by EQUALLY-SPLIT, "), e.getMessage)
      assert(ran.stageTasks.isEmpty, "a Spark job ran")
      assert(spark.sparkContext.getPersistentRDDs.isEmpty)
    }
    val (ran, e) = seen(intercept[IllegalArgumentException](
      OdysseyCluster.withIndexes(spark, spec, cfg)(OdysseyCluster.trainingRows(_, 4, SearchParams()))))
    assert(e.getMessage.contains("FULL"), e.getMessage)
    assert(ran.stageTasks.isEmpty, "a Spark job ran")
    // the node count is not the handle's: 8 nodes over the same 2 chunks measure alike
    OdysseyCluster.withIndexes(spark, spec, cfg) { indexes =>
      assert(OdysseyCluster.measure(indexes, queries, cfg.copy(nNodes = 8)) ==
               OdysseyCluster.measure(indexes, queries, cfg))
    }
  }

  test("a partitioner of the wrong chunk count fails before any stage, naming both counts") {
    val cfg = ClusterConfig(4, 2, _ => Partitioning.RandomShuffle(3))
    val (ran, e) = seen(intercept[IllegalArgumentException](OdysseyCluster.run(spark, spec, queries, cfg)))
    assert(e.getMessage.contains("has 3 chunks") && e.getMessage.contains("needs 2"), e.getMessage)
    assert(ran.stageTasks.isEmpty, "a Spark job ran")
  }

  test("the Spark grid form builds once per distinct chunking and equals per-config runs") {
    // chunkings of 1, 2 and 4 chunks, the 2-chunk one (4 nodes, PARTIAL-2) twice
    val grid = Seq(ClusterConfig(4, 2, eqSplit), ClusterConfig(4, 4, eqSplit, steal = false),
                   ClusterConfig(2, 1, eqSplit, bsfShare = false), ClusterConfig(4, 2, eqSplit, Static))
    val expected = grid.map(OdysseyCluster.run(spark, spec, queries, _))
    val (ran, results) = seen(OdysseyCluster.run(spark, spec, queries, grid, None))
    assert(results == expected)
    assert(ran.builds == 1 + 2 + 4)
  }

  /** Fig. 10 at test scale: its seven (scheduler, steal) rows and its FULL
    * config with the experiments' TH and index shape, on a collection large
    * enough that PREDICT-DN with stealing steals (at n = 600 nothing does).
    */
  private val fig10Algorithms = Seq(
    Static -> false, Dynamic -> false, PredictStUnsorted -> false, PredictSt -> false,
    PredictDn -> false, Dynamic -> true, PredictDn -> true)
  private val fig10Base = ClusterConfig(1, 1, eqSplit, params = SearchParams(threshold = 16),
                                        indexConfig = IndexConfig(w = 8, leafCapacity = 32))
  private lazy val fig10Spec = presets.seismic(4096)
  private lazy val fig10Queries = SeriesGen.queries(fig10Spec, 20)
  private lazy val fig10Predictor = OdysseyCluster.trainPredictor(spark, fig10Spec, nTrain = 10)
  private lazy val fig10Reports =
    OdysseyCluster.withIndexes(spark, fig10Spec, fig10Base)(OdysseyCluster.measure(_, fig10Queries, fig10Base))

  test("run equals simulate over one shared measurement on the Fig. 10 grid") {
    val reports = fig10Reports
    val secs = for (nn <- Seq(1, 8); (sched, steal) <- fig10Algorithms) yield {
      val cfg = fig10Base.copy(nNodes = nn, scheduler = sched, steal = steal)
      val run = OdysseyCluster.run(spark, fig10Spec, fig10Queries, cfg, Some(fig10Predictor))
      val sim = OdysseyCluster.simulate(reports, cfg, Some(fig10Predictor))
      assert(run == sim, s"nodes=$nn, ${sched.name}, steal=$steal")
      run.querySecs
    }
    assert(secs.distinct.size > 1, "every config simulated to the same time")
  }

  test("the grid form runs the Fig. 10 grid over one measurement's single stage") {
    val cfgs = for (nn <- Seq(1, 2, 4, 8, 16); (sched, steal) <- fig10Algorithms)
      yield fig10Base.copy(nNodes = nn, scheduler = sched, steal = steal)
    val reports = fig10Reports // measured before the listener starts, as is the model
    val model = Some(fig10Predictor)
    val (ran, results) = seen(OdysseyCluster.withIndexes(spark, fig10Spec, fig10Base)(
      OdysseyCluster.run(_, fig10Queries, cfgs, model)))
    assert(ran.stageTasks == Seq(1), "FULL: one exact job of one chunk task")
    assert(results == cfgs.map(OdysseyCluster.simulate(reports, _, model)))
  }

  test("the grid form equals measure then simulate per config, measuring each measurement once") {
    val grid = for (share <- Seq(true, false); params <- Seq(SearchParams(), SearchParams(threshold = 16));
                    (sched, steal) <- Seq(Static -> false, PredictDn -> true); nn <- Seq(2, 4))
      yield ClusterConfig(nn, 2, eqSplit, sched, steal, share, params)
    OdysseyCluster.withIndexes(spark, spec, grid.head) { indexes =>
      val expected =
        grid.map(c => OdysseyCluster.simulate(OdysseyCluster.measure(indexes, queries, c), c, Some(predictor)))
      val (ran, results) = seen(OdysseyCluster.run(indexes, queries, grid, Some(predictor)))
      assert(results == expected)
      // four measurements: two sharing ones of a bound and an exact job, two of an exact job
      assert(ran.stageTasks == Seq.fill(6)(2))
    }
  }

  test("the first m rows of a 2m-query measurement simulate exactly as a run of m queries") {
    val cfg = ClusterConfig(8, 4, eqSplit, PredictDn, steal = true, bsfShare = true,
                            params = SearchParams(threshold = 16))
    val reports = OdysseyCluster.withIndexes(spark, spec, cfg)(OdysseyCluster.measure(_, queries, cfg))
    for (m <- Seq(1, queries.length / 2)) {
      val batch = SeriesGen.queries(spec, m)
      assert(batch.toSeq.map(_.toSeq) == queries.take(m).toSeq.map(_.toSeq))
      val cut = OdysseyCluster.simulate(OdysseyCluster.firstQueries(reports, m), cfg, Some(predictor))
      assert(cut == OdysseyCluster.run(spark, spec, batch, cfg, Some(predictor)), s"m=$m")
    }
  }

  test("an empty batch gives every chunk's build stats, no answers and no query time") {
    val cfg = ClusterConfig(8, 4, eqSplit)
    val res = OdysseyCluster.run(spark, spec, Array.empty[Array[Double]], cfg)
    assert(res.buildStats == OdysseyCluster.run(spark, spec, queries.take(1), cfg).buildStats)
    assert(res.buildStats.map(_.chunk) == (0 until 4))
    assert(res.answers.isEmpty && res.reports.forall(_.queries.isEmpty))
    assert(res.querySecs == 0.0 && res.indexSecs > 0)
  }

  test("simulate refuses no reports, and reports of a chunk outside the config's layout") {
    val split = ClusterConfig(4, 4, eqSplit)
    val reports = OdysseyCluster.withIndexes(spark, spec, split)(OdysseyCluster.measure(_, queries.take(2), split))
    val e = intercept[IllegalArgumentException](OdysseyCluster.simulate(reports, ClusterConfig(4, 2, eqSplit)))
    assert(e.getMessage.contains("chunks [0, 1, 2, 3]") && e.getMessage.contains("config: 2 chunks"), e.getMessage)
    val none = intercept[IllegalArgumentException](OdysseyCluster.simulate(Nil, split))
    assert(none.getMessage.contains("chunks []") && none.getMessage.contains("config: 4 chunks"), none.getMessage)
  }

  test("simulate is pure: the same reports give equal results and run no Spark stage") {
    val cfg = fig10Base.copy(nNodes = 8, scheduler = PredictDn, steal = true)
    val reports = fig10Reports // measured before the listener starts, as is the model
    val model = fig10Predictor
    val (ran, (a, b)) = seen((OdysseyCluster.simulate(reports, cfg, Some(model)),
                              OdysseyCluster.simulate(reports, cfg, Some(model))))
    assert(ran.stageTasks.isEmpty, "a Spark stage ran")
    assert(a.nSteals > 0, "no steal, so the seeded victim choice went untested")
    assert(a == b)
  }

  test("all schedulers give identical answers, different times") {
    val base = ClusterConfig(8, 1, eqSplit, steal = false)
    val reports = OdysseyCluster.withIndexes(spark, spec, base)(OdysseyCluster.measure(_, queries, base))
    val times = Seq(Static, Dynamic, PredictStUnsorted, PredictSt, PredictDn).map { s =>
      val res = OdysseyCluster.simulate(reports, base.copy(scheduler = s), Some(predictor))
      queries.indices.foreach(q => assert(math.abs(res.answers(q).head._1 - brute(q)) < 1e-9))
      s.name -> res.querySecs
    }.toMap
    assert(times.values.forall(_ > 0))
  }

  test("FULL replication index is degree times larger than EQUALLY-SPLIT") {
    val full = OdysseyCluster.run(spark, spec, queries.take(1),
      ClusterConfig(4, 1, eqSplit, steal = false))
    val split = OdysseyCluster.run(spark, spec, queries.take(1),
      ClusterConfig(4, 4, eqSplit, steal = false))
    // FULL: 1 chunk (whole data) x 4 replicas vs 4 disjoint chunks x 1
    assert(full.indexBytes > split.indexBytes * 2)
  }

  test("index build time shrinks as chunks multiply (Fig. 17 behaviour)") {
    val full = OdysseyCluster.run(spark, spec, queries.take(1),
      ClusterConfig(8, 1, eqSplit, steal = false))
    val split = OdysseyCluster.run(spark, spec, queries.take(1),
      ClusterConfig(8, 8, eqSplit, steal = false))
    assert(split.bufferSecs < full.bufferSecs / 4)
  }

  test("BSF sharing reduces total search ops under partitioning") {
    val base = ClusterConfig(4, 4, eqSplit, steal = false, bsfShare = false)
    val off = OdysseyCluster.run(spark, spec, queries, base)
    val on  = OdysseyCluster.run(spark, spec, queries, base.copy(bsfShare = true))
    queries.indices.foreach { q =>
      assert(math.abs(on.answers(q).head._1 - off.answers(q).head._1) < 1e-9)
    }
    assert(on.queryStats.map(_.totalOps).sum < off.queryStats.map(_.totalOps).sum)
  }

  test("competitor configs expose the paper's semantics") {
    val dm = Competitors.dmessi(4, spec)
    assert(dm.k == 4 && !dm.bsfShare && !dm.steal)
    val sw = Competitors.dmessiSwBsf(4, spec)
    assert(sw.bsfShare && !sw.steal)
  }

  test("DMESSI and Odyssey-FULL agree on answers; Odyssey is not slower") {
    val dm = OdysseyCluster.run(spark, spec, queries, Competitors.dmessi(4, spec))
    val od = OdysseyCluster.run(spark, spec, queries, ClusterConfig(4, 1, eqSplit), Some(predictor))
    queries.indices.foreach { q =>
      assert(math.abs(dm.answers(q).head._1 - od.answers(q).head._1) < 1e-9)
    }
    assert(od.querySecs <= dm.querySecs * 1.2)
  }

  test("trainPredictor finds the BSF-cost correlation on Seismic") {
    val m = OdysseyCluster.trainPredictor(spark, spec, nTrain = 16)
    assert(m.slope > 0, s"expected positive slope, got $m")
    assert(m.r2 > 0.1, s"expected some correlation, got r2=${m.r2}")
  }

  // k = 100 exceeds the default leaf capacity of 64, so no approximate leaf
  // holds k series and every training query starts from an infinite BSF
  private val knnPastLeaf = SearchParams(k = 100)

  test("fitPredictor rejects a training query with an infinite initial BSF (k = 100)") {
    val rows = OdysseyCluster.withIndexes(spark, spec, ClusterConfig(1, 1, eqSplit))(
      OdysseyCluster.trainingRows(_, 3, knnPastLeaf))
    assert(rows.forall(_.approxBsf.isPosInfinity))
    val e = intercept[IllegalArgumentException](OdysseyCluster.fitPredictor(rows))
    assert(e.getMessage.contains("training query 0 "), e.getMessage)
  }

  test("trainThreshold rejects a training query with an infinite initial BSF (k = 100)") {
    val e = intercept[IllegalArgumentException](
      OdysseyCluster.withIndexes(spark, spec, ClusterConfig(1, 1, eqSplit))(
        OdysseyCluster.trainThreshold(_, nTrain = 3, knnPastLeaf)))
    assert(e.getMessage.contains("training query 0 "), e.getMessage)
  }

  test("trainThreshold produces a usable sigmoid") {
    val fit = OdysseyCluster.withIndexes(spark, spec, ClusterConfig(1, 1, eqSplit))(
      OdysseyCluster.trainThreshold(_, nTrain = 12))
    // evaluable and positive over the plausible BSF range
    Seq(1.0, 5.0, 10.0, 20.0).foreach(z => assert(!fit(z).isNaN))
  }

  test("k-NN pipeline returns exact global top-k under replication") {
    val data = (0L until n.toLong).map(id => (id, SeriesGen.series(spec, id)))
    for (k <- Seq(5, n + 5)) { // k > n: every series comes back, in brute-force order
      val cfg = ClusterConfig(4, 2, eqSplit, params = SearchParams(k = k))
      val res = OdysseyCluster.run(spark, spec, queries.take(4), cfg)
      (0 until 4).foreach { q =>
        val bruteK = Search.bruteForce(data.iterator, queries(q), k = k)
        assert(bruteK.length == math.min(k, n))
        assert(res.answers(q).length == bruteK.length, s"k=$k, q=$q")
        res.answers(q).zip(bruteK).foreach { case ((dg, ig), (db, ib)) =>
          assert(math.abs(dg - db) < 1e-9, s"k=$k, q=$q")
          if (k > n) assert(ig == ib, s"k=$k, q=$q")
        }
      }
    }
  }

  test("steals happen and help on a skewed batch with FULL replication") {
    // Fig. 10's WORK-STEAL against DYNAMIC on 8 nodes
    val cfg = fig10Base.copy(nNodes = 8, scheduler = Dynamic)
    val ns = OdysseyCluster.simulate(fig10Reports, cfg.copy(steal = false))
    val ws = OdysseyCluster.simulate(fig10Reports, cfg.copy(steal = true))
    assert(ns.nSteals == 0 && ws.nSteals > 0, s"steals: ${ws.nSteals}")
    assert(ws.querySecs <= ns.querySecs, s"steal=${ws.querySecs} nosteal=${ns.querySecs}")
    // and WORK-STEAL-PREDICT against PREDICT-DN, on the same measurement
    val predict = cfg.copy(scheduler = PredictDn)
    val pns = OdysseyCluster.simulate(fig10Reports, predict.copy(steal = false), Some(fig10Predictor))
    val pws = OdysseyCluster.simulate(fig10Reports, predict.copy(steal = true), Some(fig10Predictor))
    assert(pws.querySecs <= pns.querySecs, s"steal=${pws.querySecs} nosteal=${pns.querySecs}")
  }
}

object OdysseyClusterSpec {

  /** RandomShuffle that only the driver can evaluate: it holds a field Java
    * serialization refuses, and its assignment throws inside a Spark task.
    */
  final case class DriverOnly(k: Int) extends Partitioner {
    private val base = Partitioning.RandomShuffle(k)
    private val unserializable = new Object // java.lang.Object is not Serializable
    def name = "DRIVER-ONLY"
    def nChunks: Int = k
    def chunkOf(id: Long): Int = {
      if (TaskContext.get() != null) throw new IllegalStateException(s"$name read in a task")
      base.chunkOf(id)
    }
  }
}
