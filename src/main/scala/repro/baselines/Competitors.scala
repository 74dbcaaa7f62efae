package repro.baselines

import repro.cluster._
import repro.core.SeriesGen.DatasetSpec
import repro.index.IndexConfig

/** The comparison systems of Fig. 17d, expressed as pipeline configs.
  *
  *  - DMESSI: an independent MESSI instance per node over disjoint
  *    contiguous chunks — no BSF sharing, no stealing, no scheduling
  *    (every node answers every query on its chunk);
  *  - DMESSI-SW-BSF: DMESSI plus system-wide BSF sharing;
  *  - DPISAX: the DPiSAX iSAX-space partitioning with MESSI-style local
  *    query answering (as the paper implements it for fairness), partial
  *    results merged by the coordinator.
  */
object Competitors {

  def dmessi(nNodes: Int, spec: DatasetSpec, ic: IndexConfig = IndexConfig()): ClusterConfig =
    ClusterConfig(nNodes, k = nNodes,
      partitioner = k => Partitioning.EquallySplit(spec.n.toLong, k),
      scheduler = Static, steal = false, bsfShare = false, indexConfig = ic)

  def dmessiSwBsf(nNodes: Int, spec: DatasetSpec, ic: IndexConfig = IndexConfig()): ClusterConfig =
    dmessi(nNodes, spec, ic).copy(bsfShare = true)

  def dpisax(nNodes: Int, spec: DatasetSpec, ic: IndexConfig = IndexConfig()): ClusterConfig =
    ClusterConfig(nNodes, k = nNodes,
      partitioner = k => Dpisax.partition(spec, k, ic.w),
      scheduler = Static, steal = false, bsfShare = false, indexConfig = ic)
}
