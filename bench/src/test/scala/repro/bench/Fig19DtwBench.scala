package repro.bench

import repro.experiments.Experiments

/** Fig. 19 — DTW with 5% warping (Random): slower than Euclidean, but node
  * scaling and replication behave as before.
  */
class Fig19DtwBench extends BenchTables {
  test("Fig. 19: DTW costs more than ED; scaling trends persist") {
    val t = show(Experiments.fig19Dtw(spark))
    val ed = BenchTables.knn1 // 1-NN ED sweep, same workload
    assert(cell(t, "FULL", "8 nodes") > cell(ed, "FULL", "8 nodes"),
           "DTW must be more expensive than ED")
    assert(cell(t, "FULL", "8 nodes") < cell(t, "FULL", "2 nodes"),
           "more nodes must reduce DTW time under FULL")
  }
}
