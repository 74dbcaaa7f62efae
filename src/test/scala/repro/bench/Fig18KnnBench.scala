package repro.bench

import repro.experiments.Experiments

/** Fig. 18 — 10-NN (Random): answering costs more than 1-NN, and more
  * nodes / more replication still improve times the same way.
  */
class Fig18KnnBench extends BenchTables {
  test("Fig. 18: 10-NN costs more than 1-NN; node scaling still helps") {
    val t10 = show(Experiments.fig18Knn(spark, k = 10))
    val t1 = show(BenchTables.knn1)
    val full10 = cell(t10, "FULL", "8 nodes")
    val full1 = cell(t1, "FULL", "8 nodes")
    assert(full10 >= full1, s"10-NN($full10) should cost at least 1-NN($full1)")
    assert(cell(t10, "FULL", "8 nodes") < cell(t10, "FULL", "2 nodes"),
           "more nodes must reduce 10-NN time under FULL")
  }
}
