package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.IntraNodeSim.QueryWork
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
    val ops = Array(1000000L, 1000000L, 1000000L, 1000000L)
    val secs = IntraNodeSim.traversalSecs(ops, 8)
    assert(secs >= CostModel.parallelSecs(ops.sum, 8) - 1e-15)
    val skew = Array(80000000L, 1000L)
    val s2 = IntraNodeSim.traversalSecs(skew, 16)
    // a single huge batch can only be helped by HelpTH + 1 threads
    assert(s2 >= CostModel.parallelSecs(80000000L, IntraNodeSim.HelpTH + 1) - 1e-15)
  }

  test("traversal time of an empty batch set is zero") {
    assert(IntraNodeSim.traversalSecs(Array.empty, 8) == 0.0)
  }

  test("plan maps a QueryRun faithfully") {
    val run = QueryRun(List((1.0, 7L)), 2.0, 500L, Array(100L, 200L),
      Array(PqStat(0, 0.5, 3, 1000L), PqStat(1, 0.9, 2, 2000L)), 3700L, 5, 2)
    val qw = IntraNodeSim.plan(3, run)
    assert(qw.qid == 3)
    assert(qw.serialOps == 500L)
    assert(qw.tasks == run.pqStats.toVector)
    assert(qw.batchOps.toSeq == Seq(100L, 200L))
    assert(qw.pqOpsTotal == 3000L)
    // the row form carries the row's fields; the run form is the plan of its row at 16 threads
    val row = QueryStatRow.of(3, run)
    for (t <- Seq(1, 4, 16)) {
      val fromRow = IntraNodeSim.plan(row, t)
      assert((fromRow.qid, fromRow.serialOps, fromRow.tasks) == (row.qid, row.approxOps, row.tasks))
      assert(fromRow.batchOps.toSeq == row.batchOps)
      assert(fromRow.traversalSecs == IntraNodeSim.traversalSecs(row.batchOps.toArray, t))
    }
    val at16 = IntraNodeSim.plan(row, 16)
    assert((qw.qid, qw.serialOps, qw.traversalSecs, qw.tasks) == (at16.qid, at16.serialOps, at16.traversalSecs, at16.tasks))
    assert(qw.batchOps.sameElements(at16.batchOps))
  }

  test("soloSecs sums the three phases") {
    val qw = QueryWork(0, serialOps = 100000000L, traversalSecs = 0.5,
      tasks = Vector(PqStat(0, 0.0, 1, 160000000L)), batchOps = Array(1L))
    val t = 16
    val expected = CostModel.serialSecs(100000000L) + 0.5 +
      ListSchedule.makespan(Seq(CostModel.serialSecs(160000000L)), t)
    assert(math.abs(ListSchedule.soloSecs(qw, t) - expected) < 1e-12)
  }

  test("cost model constants convert ops to seconds") {
    assert(CostModel.serialSecs(100000000L) == 1.0)
    assert(CostModel.parallelSecs(1600000000L, 16) == 1.0)
  }
}
