package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core.SeriesGen
import repro.core.SeriesGen.presets
import repro.baselines.Dpisax
import repro.cluster.{Partitioner, Partitioning}
import repro.index.{Dtw, IndexConfig, IsaxIndex, SearchParams, Search}

class DistributedSearchSpec extends SparkSpec {

  // ---- oracle-checked end-to-end: Spark distributed NN == DuckDB brute force ----
  for (name <- Seq("Random", "Seismic", "Deep"); nChunks <- Seq(1, 4)) {
    test(s"distributed 1-NN matches the DuckDB oracle ($name, chunks=$nChunks)") {
      import spark.implicits._
      val n = 400
      val spec = presets.byName(name, n)
      val queries = SeriesGen.queries(spec, 5)
      val part = Partitioning.RandomShuffle(nChunks)
      val reports = DistributedSearch.run(spark, spec, part.chunkOf, queries, SearchParams())
      val answers = DistributedSearch.mergeAnswers(reports, k = 1)
      val answersDf = answers.toSeq.map { case (qid, topk) => (qid, topk.head._1) }
        .toDF("qid", "nndist")
      Oracle.assertEquivalent(
        answersDf, Oracle.BruteForceNnSql,
        "series"  -> Oracle.explodedSeries(spark, spec),
        "queries" -> Oracle.explodedQueries(spark, queries))
    }
  }

  for (k <- Seq(1, 2, 4, 8)) {
    test(s"answers are invariant to the partitioning (chunks=$k)") {
      val n = 500
      val spec = presets.seismic(n)
      val queries = SeriesGen.queries(spec, 6)
      val whole = DistributedSearch.mergeAnswers(
        DistributedSearch.run(spark, spec, _ => 0, queries, SearchParams()), 1)
      val part = Partitioning.EquallySplit(n.toLong, k)
      val split = DistributedSearch.mergeAnswers(
        DistributedSearch.run(spark, spec, part.chunkOf, queries, SearchParams()), 1)
      queries.indices.foreach { q =>
        assert(math.abs(whole(q).head._1 - split(q).head._1) < 1e-9, s"q=$q")
      }
    }
  }

  test("k-NN merge across chunks equals single-index k-NN") {
    val n = 600; val k = 5
    val spec = presets.seismic(n)
    val queries = SeriesGen.queries(spec, 4)
    val part = Partitioning.RandomShuffle(4)
    val split = DistributedSearch.mergeAnswers(
      DistributedSearch.run(spark, spec, part.chunkOf, queries, SearchParams(k = k)), k)
    val data = (0L until n.toLong).map(id => (id, SeriesGen.series(spec, id)))
    queries.indices.foreach { q =>
      val brute = Search.bruteForce(data.iterator, queries(q), k = k)
      split(q).zip(brute).foreach { case ((dg, _), (db, _)) =>
        assert(math.abs(dg - db) < 1e-9, s"q=$q")
      }
    }
  }

  test("DTW distributed search merges to the brute-force DTW answer") {
    val n = 250
    val spec = presets.random(n, length = 128)
    val queries = SeriesGen.queries(spec, 3)
    val r = math.max(1, spec.length / 20) // 5% warping
    val part = Partitioning.RandomShuffle(2)
    val merged = DistributedSearch.mergeAnswers(
      DistributedSearch.run(spark, spec, part.chunkOf, queries, SearchParams(mode = Dtw(r))), 1)
    val data = (0L until n.toLong).map(id => (id, SeriesGen.series(spec, id)))
    queries.indices.foreach { q =>
      val brute = Search.bruteForce(data.iterator, queries(q), Dtw(r)).head
      assert(math.abs(merged(q).head._1 - brute._1) < 1e-9, s"q=$q")
    }
  }

  test("shared start bounds do not change answers but cut ops") {
    val n = 900
    val spec = presets.seismic(n)
    val queries = SeriesGen.queries(spec, 6)
    val part = Partitioning.EquallySplit(n.toLong, 4)
    val local = DistributedSearch.run(spark, spec, part.chunkOf, queries, SearchParams())
    val bounds = local.flatMap(_.queries).groupBy(_.qid)
      .view.mapValues(_.map(_.approxBsf).min).toMap
    val shared = DistributedSearch.withIndexes(spark, spec, part, IndexConfig())(
      DistributedSearch.answer(_, queries, SearchParams(), bounds))
    val aL = DistributedSearch.mergeAnswers(local, 1)
    val aS = DistributedSearch.mergeAnswers(shared, 1)
    queries.indices.foreach(q => assert(math.abs(aL(q).head._1 - aS(q).head._1) < 1e-9))
    val opsL = local.flatMap(_.queries).map(_.totalOps).sum
    val opsS = shared.flatMap(_.queries).map(_.totalOps).sum
    assert(opsS < opsL)
  }

  for (part <- Seq[Partitioner](Partitioning.RandomShuffle(4),
                                Dpisax.partition(presets.seismic(600), 4, w = 8))) {
    test(s"each chunk's index is built from its series in ascending id order (${part.name})") {
      val n = 600
      val spec = presets.seismic(n)
      val queries = SeriesGen.queries(spec, 4)
      val params = SearchParams(threshold = 16)
      val reports = DistributedSearch.run(spark, spec, part.chunkOf, queries, params)
      assert(reports.map(_.build.chunk) == (0 until part.nChunks))
      reports.foreach { rep =>
        val chunk = rep.build.chunk
        val ids = (0L until n.toLong).filter(id => part.chunkOf(id) == chunk).toArray
        val index = IsaxIndex.build(chunk, ids, i => SeriesGen.series(spec, ids(i)), IndexConfig())
        assert(rep.build == index.buildStats)
        assert(rep.queries == queries.indices.map(q => QueryStatRow.of(q, Search.exact(index, queries(q), params))))
      }
    }
  }

  test("build stats report every chunk with the right populations") {
    val n = 300
    val spec = presets.random(n)
    val part = Partitioning.EquallySplit(n.toLong, 3)
    val reports = DistributedSearch.run(spark, spec, part.chunkOf,
                                        SeriesGen.queries(spec, 1), SearchParams())
    assert(reports.map(_.build.chunk) == Seq(0, 1, 2))
    assert(reports.map(_.build.nSeries).sum == n)
    reports.foreach { r =>
      assert(r.build.bufferOps == r.build.nSeries * spec.length)
      assert(r.build.indexBytes > 0)
      assert(r.queries.length == 1)
    }
  }

  test("a handle's partitions ship no ids, and nothing of the handle stays after the loan") {
    // 200,000 ids in 4 chunks: 400 KB of ids a chunk if a partition carried them
    val spec = presets.random(200000, length = 16)
    def serializedBytes(o: AnyRef): Int = {
      val bytes = new java.io.ByteArrayOutputStream
      val out = new java.io.ObjectOutputStream(bytes)
      out.writeObject(o); out.close()
      bytes.size
    }
    val handle = DistributedSearch.withIndexes(spark, spec, Partitioning.RandomShuffle(4), IndexConfig()) { indexes =>
      assert(indexes.rdd.partitions.length == 4)
      indexes.rdd.partitions.foreach(p => assert(serializedBytes(p) < 1024, s"partition ${p.index}"))
      assert(indexes.members.value.map(_.length).sum == spec.n)
      indexes
    }
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
    intercept[org.apache.spark.SparkException](handle.members.value)
    // also when the loan throws, after a job built and used the indexes
    val small = presets.random(300)
    var thrown: DistributedSearch.ChunkIndexes = null
    intercept[IllegalStateException](DistributedSearch.withIndexes(spark, small, Partitioning.RandomShuffle(2), IndexConfig()) { indexes =>
      thrown = indexes
      val reports = DistributedSearch.answer(indexes, SeriesGen.queries(small, 1), SearchParams(), Map.empty)
      assert(reports.map(_.build.nSeries).sum == small.n)
      throw new IllegalStateException("use failed")
    })
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
    intercept[org.apache.spark.SparkException](thrown.members.value)
  }

  test("thresholds option caps PQ sizes through the sigmoid model") {
    val n = 800
    val spec = presets.seismic(n)
    val queries = SeriesGen.queries(spec, 3)
    // a flat sigmoid forcing TH = 48/16 = 3
    val fit = repro.index.ThresholdModel.SigmoidFit(48, 48, 1, 1, 0)
    val reports = DistributedSearch.withIndexes(spark, spec, Partitioning.RandomShuffle(1), IndexConfig())(
      DistributedSearch.answer(_, queries, SearchParams(thresholdFit = Some((fit, 16.0))), Map.empty))
    val tasks = reports.flatMap(_.queries).flatMap(_.tasks)
    assert(tasks.nonEmpty)
    tasks.foreach(t => assert(t.leaves <= 3))
  }
}
