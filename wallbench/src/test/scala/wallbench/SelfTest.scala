package wallbench

import java.io.File
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import com.fasterxml.jackson.databind.ObjectMapper
import repro.cluster._
import repro.core.SeriesGen
import repro.core.SeriesGen.presets

/** Tests of the benchmark itself: the percentile and steady-state rules,
  * the tie rule, span self times, the cross-process fingerprint, the
  * agreement of the metric registry with BENCHMARK.json, and the replay of
  * the driver-side stage against `RunResult`.
  *
  * Run with `python3 wallbench/run.py --self-test`; exits 1 if any case fails.
  */
object SelfTest {

  private var failures = 0

  private def test(name: String)(body: => Unit): Unit =
    try { body; println(s"ok   $name") }
    catch { case NonFatal(e) => failures += 1; println(s"FAIL $name: $e") }

  private def check(cond: Boolean, msg: => String): Unit = if (!cond) throw new AssertionError(msg)

  def main(argv: Array[String]): Unit = {
    val root = new File(sys.props.getOrElse("wallbench.root", "."))

    test("a percentile needs ten samples beyond it") {
      val xs = (1 to 199).map(_.toDouble)
      check(Stats.tail(xs, 0.95).isEmpty, "p95 of 199 samples has only 9 beyond it")
      check(Stats.tail(xs :+ 200.0, 0.95).contains(190.0), s"p95 of 1..200 is ${Stats.tail(xs :+ 200.0, 0.95)}")
      check(Stats.tail((1 to 19).map(_.toDouble), 0.5).isEmpty, "p50 of 19 samples has 9 beyond it")
      check(Stats.tail((1 to 20).map(_.toDouble), 0.5).contains(10.0), "p50 of 1..20")
      check(Stats.beyond(1000, 0.99) == 10, "p99 of 1000 samples has 10 beyond it")
      check(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5, "even median")
    }

    test("warm-up ends only when the pass time stops falling") {
      check(!Protocol.steady(Seq(1.4, 1.2, 1.0, 0.8), 4), "still falling")
      check(!Protocol.steady(Seq(1.4, 0.6, 0.6), 4), "fewer passes than the minimum")
      check(Protocol.steady(Seq(1.4, 0.6, 0.61, 0.605), 4), "flat after the second pass")
      check(!Protocol.steady(Seq(1.4, 0.9, 0.9, 0.6), 4), "a new low by more than the margin")
    }

    test("tie rule: equally near ids are interchangeable, nothing else is") {
      val ref = List(1.0 -> 7L, 2.0 -> 8L)
      val dist = Map(7L -> 1.0, 8L -> 2.0, 9L -> 2.0, 10L -> 2.5)
      check(Check.answerOk(ref, ref, dist), "identical answer")
      check(Check.answerOk(List(1.0 -> 7L, 2.0 -> 9L), ref, dist), "tied id 9 for 8")
      check(!Check.answerOk(List(1.0 -> 7L, 2.0 -> 10L), ref, dist), "id 10 is farther")
      check(!Check.answerOk(List(1.0 -> 7L, 2.0 + 1e-6 -> 8L), ref, dist), "wrong distance")
      check(!Check.answerOk(List(1.0 -> 7L, 1.0 -> 7L), List(1.0 -> 7L, 1.0 -> 11L), dist + (11L -> 1.0)),
            "an id twice")
      check(!Check.answerOk(ref.take(1), ref, dist), "too few neighbours")
    }

    test("self time excludes child spans") {
      val t = new Tracer
      t.span("bench.outer") { Thread.sleep(20); t.span("index.inner")(Thread.sleep(30)) }
      val self = t.selfByLayer
      check(self("index") >= 30e6 && self("bench") >= 20e6 && self("bench") < 30e6, s"self times $self")
      check(math.abs(t.coverage - self("index").toDouble / t.all.head.nanos) < 1e-9, "coverage")
      val off = new Tracer(enabled = false)
      check(off.span("bench.x")(41) + 1 == 42 && off.all.isEmpty, "a disabled tracer runs the body, records nothing")
    }

    test("a fingerprint that changes between processes is caught") {
      val key = "selftest"
      val file = new File(root, s".bench_build/fingerprints/$key")
      file.delete()
      check(Check.acrossProcesses(root, "s1", key, "aaa").isEmpty, "first record")
      check(Check.acrossProcesses(root, "s1", key, "aaa").isEmpty, "same value")
      check(Check.acrossProcesses(root, "s1", key, "bbb").nonEmpty, "changed value")
      check(Check.acrossProcesses(root, "s2", key, "bbb").isEmpty, "a new build starts over")
      file.delete()
    }

    test("metric names and units match BENCHMARK.json") {
      val json = new ObjectMapper().readTree(new File(root, "BENCHMARK.json"))
      def defs(key: String): Seq[Metrics.Def] =
        json.get(key).elements().asScala.map(m => Metrics.Def(m.get("name").asText, m.get("unit").asText)).toSeq
      check(defs("end_to_end") == Metrics.endToEnd, s"end_to_end ${defs("end_to_end")} vs ${Metrics.endToEnd}")
      check(defs("per_layer") == Metrics.perLayer, s"per_layer ${defs("per_layer")} vs ${Metrics.perLayer}")
      val workloads = json.get("workloads").elements().asScala.map(_.get("name").asText).toSeq
      check(workloads == Seq("node-ed", "cluster"), s"workloads $workloads")
      val higher = json.get("end_to_end").elements().asScala.filter(_.get("better").asText == "higher")
      check(higher.map(_.get("name").asText).toSeq == Seq("queries_per_s"), "only queries_per_s is higher-is-better")
    }

    test("the replay of the driver-side stage reproduces RunResult") {
      val spark = SparkLayer.session(root, 2, ClusterBench.Config.k)
      try {
        val spec = presets.seismic(2048, seed = 5)
        val queries = SeriesGen.queries(spec, 12)
        val predictor = OdysseyCluster.trainPredictor(spark, spec, 8, ClusterBench.Config.params,
                                                      ClusterBench.Config.indexConfig)
        val configs = Seq(
          ClusterBench.Config,
          ClusterBench.Config.copy(scheduler = Static, bsfShare = false),
          ClusterBench.Config.copy(nNodes = 8, k = 2, scheduler = Dynamic),
          ClusterBench.Config.copy(nNodes = 4, k = 4))
        for (cfg <- configs) {
          val r = OdysseyCluster.run(spark, spec, queries, cfg, Some(predictor))
          val replay = Sim.replay(ClusterBench.groups(r), cfg, queries.length, Some(predictor), new Tracer)
          check(replay.querySecs == r.querySecs && replay.nSteals == r.nSteals,
                s"${cfg.scheduler.name} k=${cfg.k}: replay $replay vs ${r.querySecs} ${r.nSteals}")
        }
        check(SparkLayer.partitionsFor(4) == 7, "four chunk keys need seven partitions to land apart")
      } finally spark.stop()
    }

    println(if (failures == 0) "self-test passed" else s"self-test: $failures failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
