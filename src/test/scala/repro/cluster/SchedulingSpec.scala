package repro.cluster

import org.scalatest.funsuite.AnyFunSuite

class SchedulingSpec extends AnyFunSuite {

  // The worked example of §3.1: ES = {100, 50, 200, 250, 80} on two nodes.
  private val est = Map(0 -> 100.0, 1 -> 50.0, 2 -> 200.0, 3 -> 250.0, 4 -> 80.0)
  private val qids = Seq(0, 1, 2, 3, 4)

  test("paper example: unsorted static prediction-based assignment") {
    val got = Scheduling.predictAssign(qids, est, 2, sorted = false)
    assert(got(0) == Vector(0, 3)) // {q1, q4}
    assert(got(1) == Vector(1, 2, 4)) // {q2, q3, q5}
  }

  test("paper example: sorted static prediction-based assignment") {
    val got = Scheduling.predictAssign(qids, est, 2, sorted = true)
    assert(got(0).toSet == Set(3, 4)) // {q4, q5}
    assert(got(1).toSet == Set(2, 0, 1)) // {q3, q1, q2}
  }

  /** The one queue every node of a dynamic scheduler pulls from. */
  private def coordinatorQueue(kind: SchedulerKind): Vector[Int] = {
    val qs = Scheduling.queues(kind, qids, est, 2)
    assert(qs.length == 2 && (qs(0) eq qs(1)))
    qs(0).toVector
  }

  test("paper example: dynamic prediction order starts q4, q3") {
    val order = coordinatorQueue(PredictDn)
    assert(order.take(2) == Vector(3, 2))
    assert(order == Vector(3, 2, 0, 4, 1))
  }

  test("DYNAMIC keeps arrival order") {
    assert(coordinatorQueue(Dynamic) == qids.toVector)
  }

  for (nQ <- Seq(1, 7, 16, 100); nNodes <- Seq(1, 2, 4, 8)) {
    test(s"STATIC partitions the sequence contiguously and evenly (q=$nQ, nodes=$nNodes)") {
      val qs = (0 until nQ)
      val got = Scheduling.staticAssign(qs, nNodes)
      assert(got.length == nNodes)
      assert(got.flatten == qs.toVector) // contiguous, order-preserving, complete
      val sizes = got.map(_.length)
      assert(sizes.max - sizes.min <= 1)
    }

    test(s"predictAssign assigns every query exactly once (q=$nQ, nodes=$nNodes)") {
      val qs = (0 until nQ)
      val e = (q: Int) => (q % 5 + 1).toDouble
      Seq(true, false).foreach { sorted =>
        val got = Scheduling.predictAssign(qs, e, nNodes, sorted)
        assert(got.flatten.sorted == qs.toVector)
      }
    }
  }

  test("predict assignment balances loads better than STATIC on a ramp") {
    // progressively harder queries: STATIC gives the last node the hard tail
    val qs = (0 until 32)
    val e = (q: Int) => (q + 1).toDouble
    def spread(assign: Vector[Vector[Int]]): Double = {
      val loads = assign.map(_.map(e).sum)
      loads.max - loads.min
    }
    val static = spread(Scheduling.staticAssign(qs, 4))
    val pred   = spread(Scheduling.predictAssign(qs, e, 4, sorted = true))
    assert(pred < static)
  }

  test("sorted greedy never exceeds unsorted max load on an adversarial batch") {
    val qs = (0 until 9)
    val e = Map(0 -> 1.0, 1 -> 1.0, 2 -> 1.0, 3 -> 1.0, 4 -> 1.0, 5 -> 1.0, 6 -> 10.0, 7 -> 9.0, 8 -> 8.0)
    def maxLoad(sorted: Boolean): Double =
      Scheduling.predictAssign(qs, e, 3, sorted).map(_.map(e).sum).max
    assert(maxLoad(sorted = true) <= maxLoad(sorted = false))
  }

  test("scheduler kinds report paper names") {
    assert(Static.name == "STATIC")
    assert(Dynamic.name == "DYNAMIC")
    assert(PredictStUnsorted.name == "PREDICT-ST-UNSORTED")
    assert(PredictSt.name == "PREDICT-ST")
    assert(PredictDn.name == "PREDICT-DN")
    // static kinds give each node its own queue, from their assignment
    Seq(Static -> Scheduling.staticAssign(qids, 2),
        PredictStUnsorted -> Scheduling.predictAssign(qids, est, 2, sorted = false),
        PredictSt -> Scheduling.predictAssign(qids, est, 2, sorted = true)).foreach { case (kind, assigned) =>
      val qs = Scheduling.queues(kind, qids, est, 2)
      assert(!(qs(0) eq qs(1)) && qs.map(_.toVector) == assigned, kind.name)
    }
  }
}
