package wallbench

import repro.cluster.CostModel
import repro.core.{Cost, Distances, ISax, Paa, SeriesGen}
import repro.core.SeriesGen.DatasetSpec
import repro.index.{IsaxIndex, QueryCtx, Search, SearchParams}

/** Per-layer probes of the traced run: calls into `repro.core` and
  * `repro.index`, each timed under its own span.
  */
object Probes {

  /** DTW band radius of the kernel probes. */
  val Radius = 12
  val Blocks = 9

  /** Median over [[Blocks]] blocks of ns per unit; `block` returns its unit count. */
  private def perUnit(tracer: Tracer, name: String)(block: () => Long): Double =
    Stats.median((0 until Blocks).map { b =>
      val t0 = System.nanoTime()
      val units = tracer.span(name, b)(block())
      (System.nanoTime() - t0).toDouble / units
    })

  /** The distance, lower-bound, summarization and generation kernels on
    * `sample`, series drawn from the workload's own collection.
    */
  def core(spec: DatasetSpec, sample: IndexedSeq[Array[Double]], w: Int,
           tracer: Tracer, res: Result): Unit = {
    val n = sample.length
    val len = sample(0).length
    val segSizes = Paa.segmentSizes(len, w)
    val paas = sample.map(Paa.of(_, w))
    val words = paas.map(ISax.word)
    val fullBits = Array.fill(w)(ISax.MaxBits)
    val envelopes = sample.map(Distances.envelope(_, Radius))
    var sink = 0.0
    def pairs(reps: Int)(f: Int => Double): Unit = {
      var r = 0
      while (r < reps) { var i = 0; while (i < n) { sink += f(i); i += 1 }; r += 1 }
    }
    res.put("core.ed_ns_per_point", perUnit(tracer, "core.ed") { () =>
      pairs(40)(i => Distances.ed(sample(i), sample((i + 1) % n))); 40L * n * len
    }, Blocks)
    res.put("core.dtw_ns_per_cell", perUnit(tracer, "core.dtw") { () =>
      val cost = new Cost
      pairs(1)(i => Distances.dtwBand(sample(i), sample((i + 1) % n), Radius, Double.PositiveInfinity, cost))
      cost.ops
    }, Blocks)
    res.put("core.lbkeogh_ns_per_point", perUnit(tracer, "core.lbkeogh") { () =>
      val cost = new Cost
      pairs(40) { i =>
        val (up, lo) = envelopes((i + 1) % n)
        Distances.lbKeogh(sample(i), up, lo, Double.PositiveInfinity, cost)
      }
      cost.ops
    }, Blocks)
    res.put("core.mindist_ns", perUnit(tracer, "core.mindist") { () =>
      pairs(200)(i => ISax.mindistPaaToWord(paas(i), segSizes, words((i + 1) % n), fullBits)); 200L * n
    }, Blocks)
    res.put("core.summarize_ns_per_series", perUnit(tracer, "core.summarize") { () =>
      pairs(20)(i => ISax.word(Paa.of(sample(i), w))(0).toDouble); 20L * n
    }, Blocks)
    res.put("core.series_gen_ns_per_series", perUnit(tracer, "core.series_gen") { () =>
      pairs(4)(i => SeriesGen.series(spec, i.toLong)(0)); 4L * n
    }, Blocks)
    if (sink == 42.0) Console.err.println("") // keeps the kernels' results live
  }

  /** Index calls on a built index: root ordering, the approximate phase
    * alone, and brute force on the first `nBrute` queries. When
    * `exactReps` > 0 the exact search is timed here too; otherwise the
    * caller's traced window already recorded `index.exact` spans (grouped
    * by query id). `opsOf` gives a query's counted ops on this index.
    */
  def index(index: IsaxIndex, queries: Array[Array[Double]], params: SearchParams,
            data: () => Iterator[(Long, Array[Double])], nBrute: Int, exactReps: Int,
            opsOf: Int => Long, tracer: Tracer, res: Result): Unit = {
    val nq = queries.length
    tracer.span("bench.probe.index") {
      for (_ <- 0 until exactReps; q <- 0 until nq)
        tracer.span("index.exact", q)(Search.exact(index, queries(q), params))
      for (q <- 0 until nq) tracer.span("index.roots_sorted", q)(index.rootsSorted)
      for (q <- 0 until nq) tracer.span("index.approx", q) {
        Search.approx(index, new QueryCtx(queries(q), params.mode, index.config.w, index.segSizes),
                      new Cost, params.k)
      }
      for (q <- 0 until nBrute)
        tracer.span("index.bruteforce", q)(Search.bruteForce(data(), queries(q), params.mode, params.k))
    }
    def medUs(name: String): Double = Stats.median(tracer.durations(name)) / 1e3
    val exact = tracer.all.filter(_.name == "index.exact")
    val exactNs = exact.map(_.nanos.toDouble)
    res.put("index.exact_us", Stats.median(exactNs) / 1e3, exact.length)
    val nsPerOp = exactNs.sum / exact.map(s => opsOf(s.group.toInt)).sum
    res.put("index.ns_per_op", nsPerOp, exact.length)
    res.put("index.cost_model_ratio", nsPerOp / (1e9 / CostModel.OpsPerSec), exact.length)
    res.put("index.roots_sorted_us", medUs("index.roots_sorted"), nq)
    res.put("index.approx_us", medUs("index.approx"), nq)
    val bruteUs = medUs("index.bruteforce")
    res.put("index.bruteforce_us", bruteUs, nBrute)
    val exactSame = Stats.median(exact.filter(_.group < nBrute).map(_.nanos.toDouble)) / 1e3
    res.put("index.speedup_vs_bruteforce", bruteUs / exactSame, nBrute)
  }
}
