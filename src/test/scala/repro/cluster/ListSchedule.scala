package repro.cluster

import repro.cluster.IntraNodeSim.QueryWork

/** The reference model [[StealSim]] is checked against: a node's threads
  * pull atomic tasks in order, each task going to the thread free first.
  */
object ListSchedule {

  /** Makespan of atomic tasks pulled in order by `threads` workers. */
  def makespan(taskSecs: Seq[Double], threads: Int): Double = {
    if (taskSecs.isEmpty) return 0.0
    val clocks = new Array[Double](math.max(1, threads))
    taskSecs.foreach { s =>
      val i = clocks.indices.minBy(clocks)
      clocks(i) += s
    }
    clocks.max
  }

  /** Undisturbed single-node execution time of `qw` on `threads` threads. */
  def soloSecs(qw: QueryWork, threads: Int): Double =
    CostModel.serialSecs(qw.serialOps) + qw.traversalSecs +
      makespan(qw.tasks.map(t => CostModel.serialSecs(t.procOps)), threads)
}
