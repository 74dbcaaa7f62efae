package wallbench

import repro.cluster.{ClusterConfig, CostModel, IntraNodeSim, Layout, Prediction, StealSim}
import repro.index.{PqStat, QueryRun}
import repro.spark.QueryStatRow

/** Replays the driver-side stage of `OdysseyCluster.run` from outside:
  * `IntraNodeSim.plan` for every (chunk, query) record, then
  * `StealSim.simulate` once per replication group, with the arguments the
  * pipeline passes (group seed 77 + chunk). On the same records the replay
  * must give the run's `querySecs` and `nSteals` exactly.
  */
object Sim {

  final case class Replay(querySecs: Double, nSteals: Int, stolenOps: Long,
                          processedOps: Long, idleFrac: Double)

  /** A stats row as the [[QueryRun]] it was flattened from. Every touched
    * leaf lands in exactly one priority queue, so the queues' leaf counts
    * sum to the leaves touched.
    */
  def toRun(q: QueryStatRow): QueryRun =
    QueryRun(q.topKDists.zip(q.topKIds).toList, q.approxBsf, q.approxOps, q.batchOps.toArray,
             q.tasks.iterator.map(t => PqStat(t.batchId, t.topLb, t.leaves, t.procOps)).toArray,
             q.totalOps, q.tasks.iterator.map(_.leaves.toLong).sum, q.nRealDists)

  /** @param groups per chunk, the (qid, run) records of that chunk */
  def replay(groups: Seq[(Int, Seq[(Int, QueryRun)])], cfg: ClusterConfig, nQueries: Int,
             predictor: Option[Prediction.LinearModel], tracer: Tracer): Replay = {
    val layout = Layout(cfg.nNodes, cfg.k)
    val qids = (0 until nQueries).toSeq
    val results = groups.map { case (chunk, runs) =>
      val byQid = runs.toMap
      val works = tracer.span("cluster.plan", chunk) {
        byQid.map { case (qid, run) => qid -> IntraNodeSim.plan(qid, run, cfg.threads) }
      }
      val est: Int => Double = q => predictor.map(_.predict(byQid(q).approxBsf)).getOrElse(1.0)
      tracer.span("cluster.stealsim", chunk) {
        StealSim.simulate(layout.degree, works, qids, cfg.scheduler, est,
                          steal = cfg.steal && layout.degree > 1, nSend = cfg.nSend,
                          threads = cfg.threads, seed = 77L + chunk)
      }
    }
    val makespan = results.map(_.makespan).max
    val idle = results.iterator.flatMap(_.perNodeFinish).map(f => makespan - f).sum
    Replay(makespan, results.map(_.nSteals).sum, results.map(_.stolenOps).sum,
           results.map(_.processedOps).sum,
           if (makespan <= 0) 0.0 else idle / (layout.nNodes * makespan))
  }

  /** Simulated index time of one chunk build, as `OdysseyCluster.run` derives it. */
  def indexSecs(bufferOps: Long, treeOps: Long, threads: Int): Double =
    CostModel.parallelSecs(bufferOps, threads) + CostModel.parallelSecs(treeOps, threads)

  /** Per-query op and pruning counts over one batch, as `index.*` metrics. */
  def putCounts(res: Result, runs: Seq[QueryRun], nQueries: Int, nSeries: Long): Unit = {
    def perQuery(f: QueryRun => Long): Double = runs.iterator.map(f).sum.toDouble / nQueries
    res.put("index.ops_per_query", perQuery(_.totalOps), nQueries)
    res.put("index.approx_ops", perQuery(_.approxOps), nQueries)
    res.put("index.traversal_ops", perQuery(_.batchOps.sum), nQueries)
    res.put("index.pq_ops", perQuery(_.pqStats.iterator.map(_.procOps).sum), nQueries)
    res.put("index.pqs_per_query", perQuery(_.pqStats.length.toLong), nQueries)
    res.put("index.leaves_touched", perQuery(_.nLeavesTouched), nQueries)
    res.put("index.real_dists", perQuery(_.nRealDists), nQueries)
    res.put("index.prune_frac", 1.0 - perQuery(_.nRealDists) / nSeries, nQueries)
  }

  def fingerprint(fp: Check.Fingerprint, run: QueryRun): Unit = {
    fp.long(run.topK.length)
    run.topK.foreach { case (d, id) => fp.double(d).long(id) }
    fp.double(run.approxBsf).long(run.approxOps).longs(run.batchOps)
    fp.long(run.pqStats.length)
    run.pqStats.foreach(s => fp.long(s.batchId).double(s.topLb).long(s.leaves).long(s.procOps))
    fp.long(run.totalOps).long(run.nLeavesTouched).long(run.nRealDists)
  }
}
