package repro.core

/** Mutable operation counter threaded through every search routine.
  *
  * The distributed experiments replace wall-clock with simulated time; the
  * unit of account is one "op": one point touched by a real-distance loop
  * (early abandoning only charges touched points), one DTW DP cell, `w`
  * per segment-level lower bound, one per tree-node visit. The cluster
  * simulator converts ops to seconds via [[repro.cluster.CostModel]].
  */
final class Cost {
  var ops: Long = 0L
  @inline def add(n: Long): Unit = ops += n
}
