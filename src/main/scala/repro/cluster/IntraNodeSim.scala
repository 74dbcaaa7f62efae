package repro.cluster

import repro.index.QueryRun
import repro.spark.QueryStatRow

/** The benchmark's way from a [[QueryRun]] to the row [[StealSim]]
  * simulates. It stays only because the benchmark's replay
  * (`wallbench/Sim.scala`) calls it; once that replay runs
  * `OdysseyCluster.simulate` (ROADMAP item 0b), the object is deleted.
  */
object IntraNodeSim {

  /** The row of run `run` of query `qid`; `threads` is not read. */
  def plan(qid: Int, run: QueryRun, threads: Int = CostModel.ThreadsPerNode): QueryStatRow =
    QueryStatRow.of(qid, run)
}
