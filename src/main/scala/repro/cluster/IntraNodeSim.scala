package repro.cluster

import repro.index.{PqStat, QueryRun}
import repro.spark.QueryStatRow

/** Intra-node timing (§3.2.1): converts one query's measured row on a
  * chunk into the three phases a node spends on it.
  *
  *  - the initial-BSF approximate search is sequential;
  *  - the tree-traversal phase runs one thread per RS-batch with helping
  *    capped at HelpTH extra threads per batch, so its makespan is bounded
  *    below by both total/threads and the largest batch split HelpTH+1 ways;
  *  - the PQ-processing phase is list scheduling of atomic PQ tasks in
  *    sorted order on the node's threads, which [[StealSim]] runs — this is
  *    where the threshold TH earns its keep (few huge queues => one thread
  *    drags the phase).
  */
object IntraNodeSim {

  val HelpTH = 4

  /** Per-(node, query) execution plan consumed by [[StealSim]].
    *
    * @param tasks    the run's priority queues in processed order; each is
    *                 one atomic PQ-processing task of `procOps` ops
    * @param batchOps per RS-batch traversal ops: what a *stealing* node pays
    *                 to re-traverse batch b and rebuild its queues from its
    *                 own replica
    */
  final case class QueryWork(qid: Int, serialOps: Long, traversalSecs: Double,
                             tasks: Vector[PqStat], batchOps: Array[Long]) {
    def pqOpsTotal: Long = tasks.iterator.map(_.procOps).sum
  }

  /** Traversal-phase makespan with RS-batch helping (Algorithm 2, lines 11-14). */
  def traversalSecs(batchOps: Array[Long], threads: Int): Double = {
    if (batchOps.isEmpty) return 0.0
    val total = batchOps.sum
    val maxB  = batchOps.max
    math.max(CostModel.parallelSecs(total, threads),
             CostModel.parallelSecs(maxB, math.min(threads, 1 + HelpTH)))
  }

  /** Build the [[QueryWork]] plan for a measured row. */
  def plan(row: QueryStatRow, threads: Int): QueryWork = {
    val batchOps = row.batchOps.toArray
    QueryWork(row.qid, serialOps = row.approxOps, traversalSecs = traversalSecs(batchOps, threads),
              tasks = row.tasks.toVector, batchOps = batchOps)
  }

  /** The plan of run `run` of query `qid`: the plan of its row. */
  def plan(qid: Int, run: QueryRun, threads: Int = CostModel.ThreadsPerNode): QueryWork =
    plan(QueryStatRow.of(qid, run), threads)
}
