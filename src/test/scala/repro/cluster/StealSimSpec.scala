package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.IntraNodeSim.QueryWork
import repro.index.PqStat

class StealSimSpec extends AnyFunSuite {

  /** A query whose PQ phase holds `nTasks` tasks of `opsEach` ops. */
  private def work(qid: Int, nTasks: Int, opsEach: Long,
                   serial: Long = 0L, traversal: Double = 0.0): QueryWork =
    QueryWork(qid, serial, traversal,
      Vector.tabulate(nTasks)(i => PqStat(i, i.toDouble, 1, opsEach)),
      Array.fill(nTasks)(opsEach / 10))

  private def sim(nNodes: Int, works: Map[Int, QueryWork], kind: SchedulerKind = Static,
                  steal: Boolean = false, est: Int => Double = _ => 1.0) =
    StealSim.simulate(nNodes, works, works.keys.toSeq.sorted, kind, est, steal)

  test("single node, no stealing: makespan is the serial chain of queries") {
    val works = Map(0 -> work(0, 4, 400000000L), 1 -> work(1, 4, 400000000L))
    val r = sim(1, works)
    val expected = works.values.map(ListSchedule.soloSecs(_, CostModel.ThreadsPerNode)).sum
    assert(math.abs(r.makespan - expected) < 1e-6)
    assert(r.nSteals == 0)
  }

  test("STATIC on equal queries splits perfectly across nodes") {
    val works = (0 until 8).map(q => q -> work(q, 2, 800000000L)).toMap
    val r1 = sim(1, works)
    val r4 = sim(4, works)
    assert(math.abs(r4.makespan - r1.makespan / 4) < r1.makespan * 0.05)
  }

  test("DYNAMIC never loses to STATIC on a ramped batch") {
    // queries get progressively harder — STATIC gives one node the hard tail
    val works = (0 until 12).map(q => q -> work(q, 4, 100000000L * (q + 1))).toMap
    val rs = sim(4, works, Static)
    val rd = sim(4, works, Dynamic)
    assert(rd.makespan <= rs.makespan + 1e-9)
  }

  test("PREDICT-DN sorts the hard query first and beats DYNAMIC on a hard-tail batch") {
    // one very hard query at the END of the batch: DYNAMIC starts it last
    val works = (0 until 8).map { q =>
      q -> work(q, 4, if (q == 7) 3200000000L else 100000000L)
    }.toMap
    val est: Int => Double = q => works(q).pqOpsTotal.toDouble
    val rd = StealSim.simulate(4, works, works.keys.toSeq.sorted, Dynamic, est, steal = false)
    val rp = StealSim.simulate(4, works, works.keys.toSeq.sorted, PredictDn, est, steal = false)
    assert(rp.makespan < rd.makespan)
  }

  test("work stealing rescues the single-difficult-query scenario") {
    // 1 hard query + 7 trivial ones on 4 nodes: without stealing one node
    // drags the makespan; with stealing idle nodes repeatedly take its tail
    // PQs (many fine-grained queues, as TH produces)
    val works = (0 until 8).map { q =>
      q -> work(q, if (q == 0) 256 else 8, if (q == 0) 25000000L else 2000000L)
    }.toMap
    val noSteal = StealSim.simulate(4, works, works.keys.toSeq.sorted, Dynamic, _ => 1.0, steal = false)
    val withSteal = StealSim.simulate(4, works, works.keys.toSeq.sorted, Dynamic, _ => 1.0, steal = true)
    assert(withSteal.nSteals > 0)
    assert(withSteal.makespan < noSteal.makespan * 0.85,
           s"steal=${withSteal.makespan} nosteal=${noSteal.makespan}")
  }

  test("a victim about to end its query declines a thief that would end later") {
    // one query's 17th queue waits for a free thread (0.01 s to 0.02 s); the
    // other node idles from 0.009 s, but handshake + rebuild + the queue's
    // 0.01 s would end it after 0.02 s, so taking the queue cannot help
    val opsEach = 1000000L // 500 handshakes' worth: the queue is no small one
    val works = Map(0 -> work(0, CostModel.ThreadsPerNode + 1, opsEach), 1 -> work(1, 1, 900000L))
    val noSteal = StealSim.simulate(2, works, Seq(0, 1), Dynamic, _ => 1.0, steal = false)
    val withSteal = StealSim.simulate(2, works, Seq(0, 1), Dynamic, _ => 1.0, steal = true)
    assert(withSteal.nSteals == 0)
    assert(withSteal.makespan == noSteal.makespan)
    assert(math.abs(noSteal.makespan - 0.02) < 1e-12)
  }

  test("stealing never helps when work is already balanced (and never corrupts)") {
    val works = (0 until 16).map(q => q -> work(q, 4, 100000000L)).toMap
    val ns = StealSim.simulate(4, works, works.keys.toSeq.sorted, Dynamic, _ => 1.0, steal = false)
    val ws = StealSim.simulate(4, works, works.keys.toSeq.sorted, Dynamic, _ => 1.0, steal = true)
    assert(ws.makespan <= ns.makespan * 1.1 + 0.01) // at worst marginal overhead
  }

  test("simulation is deterministic for a fixed seed") {
    // the rescue scenario's works, so the seeded victim choice is exercised
    val works = (0 until 8).map { q =>
      q -> work(q, if (q == 0) 256 else 8, if (q == 0) 25000000L else 2000000L)
    }.toMap
    val a = StealSim.simulate(4, works, works.keys.toSeq.sorted, PredictDn,
                              q => works(q).pqOpsTotal.toDouble, steal = true, seed = 5)
    val b = StealSim.simulate(4, works, works.keys.toSeq.sorted, PredictDn,
                              q => works(q).pqOpsTotal.toDouble, steal = true, seed = 5)
    assert(a.nSteals > 0)
    assert(a == b)
  }

  test("every node's finish time is within the makespan; all queries run") {
    val works = (0 until 9).map(q => q -> work(q, 4, 70000000L)).toMap
    val r = sim(4, works, Dynamic)
    assert(r.perNodeFinish.forall(_ <= r.makespan + 1e-12))
    val totalOps = works.values.map(w => w.serialOps + w.pqOpsTotal).sum
    assert(r.processedOps == totalOps)
  }

  test("serial and traversal phases delay the PQ phase") {
    val fast = sim(1, Map(0 -> work(0, 2, 100000000L)))
    val slow = sim(1, Map(0 -> work(0, 2, 100000000L, serial = 200000000L, traversal = 1.5)))
    assert(slow.makespan > fast.makespan + 1.5)
  }

  test("more nodes with stealing never increase makespan (Seismic-like skew)") {
    val rng = new repro.core.Rng.Stream(11)
    val works = (0 until 24).map { q =>
      val hard = if (rng.nextDouble() < 0.2) 10 else 1
      q -> work(q, 16, 20000000L * hard)
    }.toMap
    val est: Int => Double = q => works(q).pqOpsTotal.toDouble
    var prev = Double.PositiveInfinity
    Seq(1, 2, 4, 8).foreach { n =>
      val r = StealSim.simulate(n, works, works.keys.toSeq.sorted, PredictDn, est, steal = true)
      assert(r.makespan <= prev * 1.05 + 1e-9, s"n=$n makespan=${r.makespan} prev=$prev")
      prev = r.makespan
    }
  }

  test("empty query batch completes immediately") {
    val r = StealSim.simulate(4, Map.empty, Seq.empty, Dynamic, _ => 1.0, steal = true)
    assert(r.makespan == 0.0 && r.nSteals == 0)
  }
}
