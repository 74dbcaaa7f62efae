package repro.cluster

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.IntraNodeSim.QueryWork
import repro.index.PqStat
import StealSimPropertiesSpec.{Group, genGroup, kinds}

/** The simulator's laws, checked over generated replication groups. */
class StealSimPropertiesSpec extends AnyFunSuite {

  private val params = Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(20232L))

  private def holds(prop: Prop): Unit = {
    val res = Check.check(params, prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("every node finishes within the makespan") {
    holds(Prop.forAll(genGroup) { g =>
      val r = g.run()
      r.perNodeFinish.length == g.nNodes && r.perNodeFinish.forall(_ <= r.makespan)
    })
  }

  test("makespan is at least the total work spread over every thread of the group") {
    holds(Prop.forAll(genGroup) { g =>
      val floor = g.totalOps / (g.nNodes * CostModel.ThreadsPerNode * CostModel.OpsPerSec)
      g.run().makespan >= floor * (1 - 1e-12)
    })
  }

  test("without stealing, processedOps is the total work") {
    holds(Prop.forAll(genGroup) { g =>
      val r = g.copy(steal = false).run()
      r.nSteals == 0 && r.stolenOps == 0 && r.processedOps == g.totalOps
    })
  }

  test("with stealing, processedOps is the total work plus each steal's handshake") {
    // free rebuilds: a steal moves work without adding any but its handshake
    var steals = 0
    holds(Prop.forAll(genGroup) { g0 =>
      val g = g0.copy(steal = true, works = g0.works.view.mapValues(w => w.copy(batchOps = w.batchOps.map(_ => 0L))).toMap)
      val r = g.run()
      steals += r.nSteals
      r.processedOps == g.totalOps + r.nSteals * StealSim.HandshakeOps
    })
    assert(steals > 0)
  }

  test("the same seed gives an equal GroupResult") {
    holds(Prop.forAll(genGroup) { g => g.run() == g.run() })
  }

  for (kind <- kinds) {
    test(s"${kind.name} finishes on an empty batch and on a one-node group") {
      Seq(false, true).foreach { steal =>
        val empty = StealSim.simulate(3, Map.empty, Seq.empty, kind, _ => 1.0, steal)
        assert(empty.makespan == 0.0 && empty.perNodeFinish == Vector(0.0, 0.0, 0.0))
      }
      // one node runs its queries back to back, whatever the order
      holds(Prop.forAll(genGroup) { g =>
        val r = g.copy(nNodes = 1, kind = kind).run()
        val chain = g.works.values.map(ListSchedule.soloSecs(_, CostModel.ThreadsPerNode)).sum
        r.nSteals == 0 && r.processedOps == g.totalOps && math.abs(r.makespan - chain) <= 1e-9 * (1 + chain)
      })
    }
  }
}

object StealSimPropertiesSpec {

  val kinds = Seq(Static, Dynamic, PredictStUnsorted, PredictSt, PredictDn)

  /** One query: up to 40 PQ tasks over up to 6 RS-batches, in ascending
    * top-lower-bound order as `Search.exact` emits them.
    */
  def genWork(qid: Int): Gen[QueryWork] = for {
    serial    <- Gen.choose(0L, 10000000L)
    traversal <- Gen.choose(0.0, 0.05)
    nBatches  <- Gen.choose(1, 6)
    batchOps  <- Gen.listOfN(nBatches, Gen.choose(0L, 5000000L))
    nTasks    <- Gen.choose(0, 40)
    tasks     <- Gen.listOfN(nTasks, Gen.zip(Gen.choose(0, nBatches - 1), Gen.choose(0L, 50000000L)))
  } yield QueryWork(qid, serial, traversal,
    tasks.zipWithIndex.map { case ((b, ops), i) => PqStat(b, i.toDouble, 1, ops) }.toVector,
    batchOps.toArray)

  val genGroup: Gen[Group] = for {
    nNodes <- Gen.choose(1, 8)
    nQ     <- Gen.choose(0, 12)
    works  <- Gen.sequence[List[QueryWork], QueryWork]((0 until nQ).map(genWork))
    est    <- Gen.listOfN(nQ, Gen.choose(1.0, 100.0))
    kind   <- Gen.oneOf(kinds)
    steal  <- Gen.oneOf(true, false)
    seed   <- Gen.choose(0L, 1000L)
  } yield Group(nNodes, works.map(w => w.qid -> w).toMap, est.zipWithIndex.map(_.swap).toMap,
                kind, steal, seed)

  /** One replication group's input to [[StealSim.simulate]]. */
  final case class Group(nNodes: Int, works: Map[Int, QueryWork], est: Map[Int, Double],
                         kind: SchedulerKind, steal: Boolean, seed: Long) {
    def run(): StealSim.GroupResult =
      StealSim.simulate(nNodes, works, works.keys.toSeq.sorted, kind, est, steal, seed = seed)
    def totalOps: Long = works.values.map(w => w.serialOps + w.pqOpsTotal).sum
  }
}
