package repro.cluster

import scala.collection.mutable

/** Query-scheduling policies (§3.1).
  *
  *  - STATIC: the query sequence is cut into `nNodes` contiguous
  *    subsequences, one per node;
  *  - DYNAMIC: a coordinator hands the next unprocessed query to whichever
  *    node asks first (simulated in [[StealSim]]);
  *  - PREDICT-ST-UNSORTED: greedy least-loaded static assignment using the
  *    predicted execution times, in arrival order;
  *  - PREDICT-ST: same, after sorting by descending prediction;
  *  - PREDICT-DN: DYNAMIC over the batch sorted by descending prediction.
  */
sealed trait SchedulerKind { def name: String }
case object Static          extends SchedulerKind { val name = "STATIC" }
case object Dynamic         extends SchedulerKind { val name = "DYNAMIC" }
case object PredictStUnsorted extends SchedulerKind { val name = "PREDICT-ST-UNSORTED" }
case object PredictSt       extends SchedulerKind { val name = "PREDICT-ST" }
case object PredictDn       extends SchedulerKind { val name = "PREDICT-DN" }

object Scheduling {

  /** STATIC: contiguous equal-size subsequences. */
  def staticAssign(qids: Seq[Int], nNodes: Int): Vector[Vector[Int]] = {
    val out = Vector.newBuilder[Vector[Int]]
    var i = 0
    (0 until nNodes).foreach { n =>
      val take = (qids.length - i + (nNodes - n - 1)) / (nNodes - n) // spread remainder
      out += qids.slice(i, i + take).toVector
      i += take
    }
    out.result()
  }

  /** Greedy prediction-based static assignment: each query goes to the node
    * with the smallest accumulated predicted load (ties -> lowest node id).
    * `sorted` first orders the batch by descending prediction (PREDICT-ST);
    * otherwise arrival order is kept (PREDICT-ST-UNSORTED).
    */
  def predictAssign(qids: Seq[Int], est: Int => Double, nNodes: Int,
                    sorted: Boolean): Vector[Vector[Int]] = {
    val order = if (sorted) qids.sortBy(q => -est(q)) else qids
    val load = new Array[Double](nNodes)
    val out  = Array.fill(nNodes)(mutable.ArrayBuffer.empty[Int])
    order.foreach { q =>
      val n = load.indices.minBy(i => (load(i), i))
      out(n) += q
      load(n) += est(q)
    }
    out.map(_.toVector).toVector
  }

  /** The query queue each of `nNodes` nodes serves, in order. A static kind
    * gives every node its own queue; DYNAMIC and PREDICT-DN put the
    * coordinator's one queue at every index, so an idle node pulls the next
    * unserved query: in arrival order for DYNAMIC, by descending prediction
    * for PREDICT-DN.
    */
  def queues(kind: SchedulerKind, qids: Seq[Int], est: Int => Double,
             nNodes: Int): IndexedSeq[mutable.Queue[Int]] = {
    def own(assigned: Vector[Vector[Int]]) = assigned.map(mutable.Queue.from(_))
    def shared(order: Seq[Int]) = { val q = mutable.Queue.from(order); Vector.fill(nNodes)(q) }
    kind match {
      case Static            => own(staticAssign(qids, nNodes))
      case PredictStUnsorted => own(predictAssign(qids, est, nNodes, sorted = false))
      case PredictSt         => own(predictAssign(qids, est, nNodes, sorted = true))
      case Dynamic           => shared(qids)
      case PredictDn         => shared(qids.sortBy(q => -est(q)))
    }
  }
}
