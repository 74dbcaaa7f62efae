package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.index.{PqStat, QueryRun}
import repro.spark.QueryStatRow

class IntraNodeSimSpec extends AnyFunSuite {

  test("list scheduling: empty task list takes zero time") {
    assert(ListSchedule.makespan(Seq.empty, 4) == 0.0)
  }

  test("list scheduling: single thread is the serial sum") {
    val tasks = Seq(1.0, 2.0, 3.0)
    assert(ListSchedule.makespan(tasks, 1) == 6.0)
  }

  for (t <- Seq(2, 4, 8)) {
    test(s"list scheduling bounds: total/T <= makespan <= total, >= max task (T=$t)") {
      val tasks = Seq(5.0, 1.0, 1.0, 1.0, 3.0, 2.0, 2.0)
      val ms = ListSchedule.makespan(tasks, t)
      assert(ms >= tasks.sum / t - 1e-12)
      assert(ms >= tasks.max)
      assert(ms <= tasks.sum + 1e-12)
    }
  }

  test("list scheduling: equal tasks on matching threads are perfectly parallel") {
    val ms = ListSchedule.makespan(Seq.fill(8)(2.0), 8)
    assert(math.abs(ms - 2.0) < 1e-12)
  }

  test("one giant task dominates the PQ phase — the imbalance TH fights") {
    val balanced = ListSchedule.makespan(Seq.fill(16)(1.0), 8)
    val skewed   = ListSchedule.makespan(Seq(9.0) ++ Seq.fill(7)(1.0), 8)
    assert(skewed > balanced * 2)
  }

  test("traversal time respects both the parallel and the helping bound") {
    val ops = Seq(1000000L, 1000000L, 1000000L, 1000000L)
    val secs = StealSim.traversalSecs(ops, 8)
    assert(secs >= CostModel.parallelSecs(ops.sum, 8) - 1e-15)
    val skew = Seq(80000000L, 1000L)
    val s2 = StealSim.traversalSecs(skew, 16)
    // a single huge batch can only be helped by HelpTH + 1 threads
    assert(s2 >= CostModel.parallelSecs(80000000L, StealSim.HelpTH + 1) - 1e-15)
  }

  test("traversal time of an empty batch set is zero") {
    assert(StealSim.traversalSecs(Nil, 8) == 0.0)
  }

  test("plan maps a QueryRun faithfully") {
    val run = QueryRun(List((1.0, 7L)), 2.0, 500L, Array(100L, 200L),
      Array(PqStat(0, 0.5, 3, 1000L), PqStat(1, 0.9, 2, 2000L)), 3700L, 5, 2)
    // the plan of a run is the run's row, whatever the thread count
    assert(IntraNodeSim.plan(3, run) == QueryStatRow.of(3, run))
    for (t <- Seq(1, 4, 16)) assert(IntraNodeSim.plan(3, run, t) == QueryStatRow.of(3, run))
  }

  test("soloSecs sums the three phases") {
    // one batch of 2.5e8 ops, helped by HelpTH + 1 = 5 threads: 0.5 s
    val row = QueryStatRow(0, Nil, Nil, approxBsf = 0.0, approxOps = 100000000L, batchOps = Seq(250000000L),
                           tasks = Seq(PqStat(0, 0.0, 1, 160000000L)), totalOps = 510000000L, nRealDists = 0L)
    val t = 16
    val expected = CostModel.serialSecs(100000000L) + 0.5 +
      ListSchedule.makespan(Seq(CostModel.serialSecs(160000000L)), t)
    assert(math.abs(ListSchedule.soloSecs(row, t) - expected) < 1e-12)
  }

  test("cost model constants convert ops to seconds") {
    assert(CostModel.serialSecs(100000000L) == 1.0)
    assert(CostModel.parallelSecs(1600000000L, 16) == 1.0)
  }
}
