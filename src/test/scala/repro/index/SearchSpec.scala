package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SeriesGen
import repro.core.SeriesGen.presets

class SearchSpec extends AnyFunSuite {

  private def dataset(n: Int, name: String): Seq[(Long, Array[Double])] = {
    val spec = presets.byName(name, n)
    (0L until n.toLong).map(id => (id, SeriesGen.series(spec, id)))
  }

  private val datasets = Seq("Random", "Seismic", "Deep")

  private val sizes = Seq(200, 800)
  private val thresholds = Seq(Int.MaxValue, 8)
  private val batchCounts = Seq(1, 4, 16)
  private val leafCaps = Seq(8, 32)

  // ---- exact 1-NN equals brute force across datasets and knobs ----
  for (name <- datasets; n <- sizes; th <- thresholds; nsb <- batchCounts; cap <- leafCaps) {
    test(s"exact 1-NN == brute force ($name, n=$n, TH=$th, nsb=$nsb, cap=$cap)") {
      val data = dataset(n, name)
      val spec = presets.byName(name, n)
      val idx = IsaxIndex.build(data.iterator, IndexConfig(w = 8, leafCapacity = cap))
      (0 until 4).foreach { q =>
        val query = SeriesGen.query(spec, q)
        val run = Search.exact(idx, query, SearchParams(nsb = nsb, threshold = th))
        val brute = Search.bruteForce(data.iterator, query).head
        assert(math.abs(run.bestDist - brute._1) < 1e-9,
               s"q=$q got=${run.bestDist} want=${brute._1}")
      }
    }
  }

  test("every touched leaf is held by exactly one processed queue (same grid)") {
    for (name <- datasets; n <- sizes; cap <- leafCaps) {
      val spec = presets.byName(name, n)
      val idx = IsaxIndex.build(dataset(n, name).iterator, IndexConfig(w = 8, leafCapacity = cap))
      for (th <- thresholds; nsb <- batchCounts; q <- 0 until 4) {
        val run = Search.exact(idx, SeriesGen.query(spec, q), SearchParams(nsb = nsb, threshold = th))
        assert(run.pqStats.map(_.leaves.toLong).sum == run.nLeavesTouched,
               s"$name n=$n TH=$th nsb=$nsb cap=$cap q=$q")
      }
    }
  }

  // ---- k-NN equals brute force ----
  for (name <- Seq("Seismic", "Random"); k <- Seq(2, 5, 10)) {
    test(s"exact $k-NN == brute force ($name)") {
      val n = 600
      val data = dataset(n, name)
      val spec = presets.byName(name, n)
      val idx = IsaxIndex.build(data.iterator, IndexConfig(w = 8, leafCapacity = 16))
      (0 until 3).foreach { q =>
        val query = SeriesGen.query(spec, q)
        val run = Search.exact(idx, query, SearchParams(k = k))
        val brute = Search.bruteForce(data.iterator, query, k = k)
        assert(run.topK.length == k)
        run.topK.zip(brute).foreach { case ((dg, _), (db, _)) =>
          assert(math.abs(dg - db) < 1e-9, s"q=$q got=${run.topK} want=$brute")
        }
      }
    }
  }

  // ---- DTW search equals brute-force DTW ----
  for (name <- Seq("Seismic", "Random"); rFrac <- Seq(0.05, 0.15)) {
    test(s"exact DTW 1-NN == brute force ($name, warp=${(rFrac * 100).toInt}%)") {
      val n = 300
      val data = dataset(n, name)
      val spec = presets.byName(name, n)
      val r = math.max(1, (spec.length * rFrac).toInt)
      val idx = IsaxIndex.build(data.iterator, IndexConfig(w = 8, leafCapacity = 16))
      (0 until 3).foreach { q =>
        val query = SeriesGen.query(spec, q)
        val run = Search.exact(idx, query, SearchParams(mode = Dtw(r)))
        val brute = Search.bruteForce(data.iterator, query, Dtw(r)).head
        assert(math.abs(run.bestDist - brute._1) < 1e-9, s"q=$q")
      }
    }
  }

  test("approximate search returns a real distance no better than the exact answer") {
    val n = 500
    val data = dataset(n, "Seismic")
    val spec = presets.seismic(n)
    val idx = IsaxIndex.build(data.iterator, IndexConfig())
    (0 until 8).foreach { q =>
      val query = SeriesGen.query(spec, q)
      val run = Search.exact(idx, query, SearchParams())
      assert(run.approxBsf >= run.bestDist - 1e-9)
      // approx BSF is the real distance to some actual series
      val dists = data.map { case (_, v) => repro.core.Distances.ed(query, v) }
      assert(dists.exists(d => math.abs(d - run.approxBsf) < 1e-9))
    }
  }

  test("threshold caps the leaves per priority queue") {
    val data = dataset(1500, "Random")
    val spec = presets.random(1500)
    val idx = IsaxIndex.build(data.iterator, IndexConfig(w = 8, leafCapacity = 8))
    val th = 4
    (0 until 4).foreach { q =>
      val run = Search.exact(idx, SeriesGen.query(spec, q), SearchParams(threshold = th))
      run.pqStats.foreach(s => assert(s.leaves <= th))
    }
  }

  test("smaller thresholds produce more, smaller queues with the same answer") {
    val data = dataset(1000, "Seismic")
    val spec = presets.seismic(1000)
    val idx = IsaxIndex.build(data.iterator, IndexConfig(w = 8, leafCapacity = 8))
    val query = SeriesGen.query(spec, 1)
    val loose = Search.exact(idx, query, SearchParams(threshold = Int.MaxValue))
    val tight = Search.exact(idx, query, SearchParams(threshold = 2))
    assert(math.abs(loose.bestDist - tight.bestDist) < 1e-9)
    assert(tight.pqStats.length >= loose.pqStats.length)
  }

  test("thresholdFit derives TH from the initial BSF") {
    val data = dataset(600, "Seismic")
    val spec = presets.seismic(600)
    val idx = IsaxIndex.build(data.iterator, IndexConfig(w = 8, leafCapacity = 8))
    // a sigmoid rising through the queries' BSFs: TH varies from query to query
    val fit = ThresholdModel.SigmoidFit(0, 96, 1, 1, 10)
    val factor = 8.0
    val ths = (0 until 6).map { q =>
      val run = Search.exact(idx, SeriesGen.query(spec, q), SearchParams(thresholdFit = Some((fit, factor))))
      val th = ThresholdModel.thresholdFor(fit, run.approxBsf, factor)
      assert(run.pqStats.nonEmpty)
      run.pqStats.foreach(s => assert(s.leaves <= th, s"query $q: ${s.leaves} leaves, TH $th"))
      th
    }
    assert(ths.distinct.size > 1, s"every query got TH ${ths.head}")
  }

  // ---- shared-BSF semantics: per-chunk searches merge to the global answer ----
  for (nChunks <- Seq(2, 4); shared <- Seq(false, true)) {
    test(s"chunked searches merge exactly (chunks=$nChunks, shared=$shared)") {
      val n = 800
      val data = dataset(n, "Seismic")
      val spec = presets.seismic(n)
      val chunks = data.groupBy { case (id, _) => (id % nChunks).toInt }
      val idxs = chunks.view.mapValues(c => IsaxIndex.build(c.iterator, IndexConfig())).toMap
      (0 until 4).foreach { q =>
        val query = SeriesGen.query(spec, q)
        val bound =
          if (!shared) Double.PositiveInfinity
          else idxs.values.map { i =>
            val c = new repro.core.Cost
            Search.approx(i, new QueryCtx(query, Euclidean, i.config.w, i.segSizes), c).bound
          }.min
        val merged = idxs.values.map(i => Search.exact(i, query, SearchParams(), startBound = bound).bestDist).min
        val brute = Search.bruteForce(data.iterator, query).head._1
        assert(math.abs(merged - brute) < 1e-9, s"q=$q")
      }
    }
  }

  test("sharing a tight start bound reduces total ops") {
    val n = 1200
    val data = dataset(n, "Seismic")
    val spec = presets.seismic(n)
    val idx = IsaxIndex.build(data.iterator, IndexConfig())
    var unshared = 0L; var sharedOps = 0L
    (0 until 6).foreach { q =>
      val query = SeriesGen.query(spec, q)
      val local = Search.exact(idx, query, SearchParams())
      unshared += local.totalOps
      sharedOps += Search.exact(idx, query, SearchParams(), startBound = local.bestDist * 1.0000001).totalOps
    }
    assert(sharedOps < unshared)
  }

  test("pq stats are sorted by top lower bound and cover the processed ops") {
    val data = dataset(700, "Random")
    val spec = presets.random(700)
    val idx = IsaxIndex.build(data.iterator, IndexConfig(w = 8, leafCapacity = 8))
    val run = Search.exact(idx, SeriesGen.query(spec, 2), SearchParams(threshold = 8))
    val tops = run.pqStats.map(_.topLb)
    assert(tops.sameElements(tops.sorted))
    assert(run.pqStats.map(_.procOps).sum <= run.totalOps)
    assert(run.batchOps.forall(_ >= 0))
  }

  test("brute force helper returns ascending distances with correct ids") {
    val data = dataset(100, "Random")
    val spec = presets.random(100)
    val got = Search.bruteForce(data.iterator, SeriesGen.query(spec, 0), k = 5)
    assert(got.length == 5)
    assert(got.map(_._1).sliding(2).forall(p => p.length < 2 || p(0) <= p(1)))
    got.foreach { case (d, id) =>
      assert(math.abs(repro.core.Distances.ed(SeriesGen.query(spec, 0), data(id.toInt)._2) - d) < 1e-9)
    }
  }

  test("a query of another length than the series is rejected") {
    val spec = presets.seismic(300)
    val idx = IsaxIndex.build(dataset(300, "Seismic").iterator, IndexConfig(w = 8))
    for (query <- Seq(SeriesGen.query(spec, 0).take(200), SeriesGen.query(spec, 0) :+ 0.0)) {
      intercept[IllegalArgumentException](Search.exact(idx, query, SearchParams()))
      intercept[IllegalArgumentException](
        Search.approx(idx, new QueryCtx(query, Euclidean, 8, idx.segSizes), new repro.core.Cost))
    }
  }

  // ---- degenerate inputs: duplicates and constant series share leaves ----
  test("exact k-NN over duplicate and all-zero series equals brute force under the tie rule") {
    val spec = presets.seismic(300)
    val base = dataset(300, "Seismic")
    // ids 300-399 copy series 0-99; ids 400-459 are all zeros, one leaf far over capacity
    val data = base ++ base.take(100).map { case (id, v) => (id + 300, v.clone()) } ++
      (400L until 460L).map(id => (id, new Array[Double](spec.length)))
    val byId = data.toMap
    val idx = IsaxIndex.build(data.iterator, IndexConfig(w = 8, leafCapacity = 8))
    val queries = (0 until 4).map(SeriesGen.query(spec, _)) ++
      Seq(base(7)._2, base(150)._2, new Array[Double](spec.length))
    for (k <- Seq(1, 3); (query, q) <- queries.zipWithIndex) {
      val brute = Search.bruteForce(data.iterator, query, k = k)
      for (startBound <- Seq(Double.PositiveInfinity, math.nextUp(brute.last._1))) {
        val got = Search.exact(idx, query, SearchParams(threshold = 4, k = k), startBound).topK
        val where = s"k=$k q=$q start=$startBound: got $got, want $brute"
        assert(got.map(_._1) == brute.map(_._1), where)
        assert(got.map(_._2).distinct.length == k, where)
        got.foreach { case (d, id) => assert(repro.core.Distances.ed(query, byId(id)) == d, where) }
      }
    }
  }

  // ---- op-count regression: every QueryRun field over a fixed grid ----
  // `OpCountHash` hashes answers, op counts and queues over generated data.
  // It was last recorded when `Rng.Stream.nextGaussian` moved from Box–Muller
  // to the JDK's ziggurat (before: 0x43da5d1fce3c776eL). Speed-ups must keep
  // it: the simulated tables are built on these answers, op counts and
  // queues. Only a change that sets out to alter the cost model or the data
  // generator records a new value (and re-records EXPERIMENTS.md).
  private val OpCountHash = 0xd0eca224d97836e2L

  private def runHash(run: QueryRun, h: Long): Long = {
    var x = h
    def mix(v: Long): Unit = { x = (x ^ v) * 0x100000001b3L; x ^= x >>> 31 }
    def dbl(d: Double): Unit = mix(java.lang.Double.doubleToRawLongBits(d))
    mix(run.topK.length.toLong)
    run.topK.foreach { case (d, id) => dbl(d); mix(id) }
    dbl(run.approxBsf); mix(run.approxOps)
    mix(run.batchOps.length.toLong); run.batchOps.foreach(mix)
    mix(run.pqStats.length.toLong)
    run.pqStats.foreach { s => mix(s.batchId.toLong); dbl(s.topLb); mix(s.leaves.toLong); mix(s.procOps) }
    mix(run.totalOps); mix(run.nLeavesTouched); mix(run.nRealDists)
    x
  }

  test("op counts, queues and answers match the recorded hash (ED k=1/5, DTW r=12 k=10, TH 4/inf)") {
    val grid = Seq((Euclidean, 1), (Euclidean, 5), (Dtw(12), 10))
    var h = 0xcbf29ce484222325L
    for (name <- datasets) {
      val n = 600
      val spec = presets.byName(name, n)
      val idx = IsaxIndex.build(dataset(n, name).iterator, IndexConfig(w = 8, leafCapacity = 16))
      for ((mode, k) <- grid; th <- Seq(4, Int.MaxValue); q <- 0 until 4) {
        val run = Search.exact(idx, SeriesGen.query(spec, q), SearchParams(nsb = 4, threshold = th, mode = mode, k = k))
        h = runHash(run, h)
      }
    }
    assert(h == OpCountHash, f"hash 0x$h%016xL")
  }
}
