package wallbench

import scala.collection.mutable

/** The benchmark's metric names and units. BENCHMARK.json lists the same
  * names; [[SelfTest]] checks that the two agree.
  */
object Metrics {

  final case class Def(name: String, unit: String)

  /** Printed by every untraced run, on every workload. */
  val endToEnd: Seq[Def] = Seq(
    Def("setup_s", "s"),
    Def("query_p50_us", "us"),
    Def("query_p95_us", "us"),
    Def("queries_per_s", "1/s"),
    Def("batch_p50_s", "s"),
    Def("heap_mb", "MiB"),
    Def("sim_index_s", "s"),
  )

  /** Printed by every traced run, on every workload. */
  val perLayer: Seq[Def] = Seq(
    Def("sim_query_s", "s"),
    Def("core.ed_ns_per_point", "ns"),
    Def("core.dtw_ns_per_cell", "ns"),
    Def("core.lbkeogh_ns_per_point", "ns"),
    Def("core.mindist_ns", "ns"),
    Def("core.summarize_ns_per_series", "ns"),
    Def("core.series_gen_ns_per_series", "ns"),
    Def("index.build_s", "s"),
    Def("index.roots_sorted_us", "us"),
    Def("index.approx_us", "us"),
    Def("index.exact_us", "us"),
    Def("index.ns_per_op", "ns"),
    Def("index.cost_model_ratio", "ratio"),
    Def("index.ops_per_query", "count"),
    Def("index.approx_ops", "count"),
    Def("index.traversal_ops", "count"),
    Def("index.pq_ops", "count"),
    Def("index.pqs_per_query", "count"),
    Def("index.leaves_touched", "count"),
    Def("index.real_dists", "count"),
    Def("index.prune_frac", "ratio"),
    Def("index.model_mb", "MiB"),
    Def("index.bruteforce_us", "us"),
    Def("index.speedup_vs_bruteforce", "ratio"),
    Def("spark.gen_s", "s"),
    Def("spark.build_pass_s", "s"),
    Def("spark.pass_s", "s"),
    Def("spark.merge_ms", "ms"),
    Def("spark.jobs", "count"),
    Def("spark.stages", "count"),
    Def("spark.tasks", "count"),
    Def("spark.executor_run_s", "s"),
    Def("spark.executor_cpu_s", "s"),
    Def("spark.jvm_gc_s", "s"),
    Def("spark.shuffle_write_mb", "MiB"),
    Def("spark.shuffle_read_mb", "MiB"),
    Def("spark.result_mb", "MiB"),
    Def("spark.task_max_over_median", "ratio"),
    Def("cluster.plan_ms", "ms"),
    Def("cluster.stealsim_ms", "ms"),
    Def("cluster.driver_s", "s"),
    Def("cluster.steals", "count"),
    Def("cluster.stolen_ops", "count"),
    Def("cluster.processed_ops", "count"),
    Def("cluster.idle_frac", "ratio"),
    Def("cluster.predictor_train_s", "s"),
    Def("self.core_s", "s"),
    Def("self.index_s", "s"),
    Def("self.spark_s", "s"),
    Def("self.cluster_s", "s"),
    Def("self.bench_s", "s"),
    Def("trace.overhead_frac", "ratio"),
    Def("trace.coverage_frac", "ratio"),
    Def("failed_frac", "ratio"),
  )

  private val units: Map[String, String] = (endToEnd ++ perLayer).map(d => d.name -> d.unit).toMap

  def unitOf(name: String): String =
    units.getOrElse(name, throw new IllegalArgumentException(s"unregistered metric $name"))
}

/** Everything one run reports: metrics with their sample counts, the
  * correctness tally, and any failed check.
  */
final class Result {
  final case class Value(value: Double, samples: Int)

  val values: mutable.LinkedHashMap[String, Value] = mutable.LinkedHashMap.empty
  val problems: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty
  var attempted: Long = 0L
  var failed: Long = 0L

  def put(name: String, value: Double, samples: Int = 1): Unit = {
    Metrics.unitOf(name)
    if (value.isNaN || value.isInfinite) problem(s"$name is not finite ($value)")
    values(name) = Value(value, samples)
  }

  def problem(msg: String): Unit = problems += msg

  /** Count `n` checked answers of which `bad` were wrong or thrown. */
  def tally(n: Long, bad: Long): Unit = { attempted += n; failed += bad }

  def correct: Boolean = failed == 0 && problems.isEmpty && attempted > 0

  /** The metrics the run must print, in registry order; any missing one is a problem. */
  def select(defs: Seq[Metrics.Def]): Seq[(Metrics.Def, Value)] =
    defs.flatMap { d =>
      val v = values.get(d.name)
      if (v.isEmpty) problem(s"metric ${d.name} was not measured")
      v.map(d -> _)
    }

  def json(chosen: Seq[(Metrics.Def, Value)]): String = {
    // A non-finite value is already a problem; JSON has no spelling for it.
    val ms = chosen.filter(_._2.value.isFinite).map { case (d, v) =>
      s""""${d.name}": {"value": ${java.lang.Double.toString(v.value)}, "unit": "${d.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
