package repro.cluster

import org.scalatest.funsuite.AnyFunSuite

class TopologySpec extends AnyFunSuite {

  test("FULL and EQUALLY-SPLIT naming") {
    assert(Layout(8, 1).name == "FULL")
    assert(Layout(8, 8).name == "EQUALLY-SPLIT")
    assert(Layout(8, 2).name == "PARTIAL-2")
    assert(Layout(1, 1).name == "FULL")
  }

  test("replication degree arithmetic (paper's PARTIAL-4 example)") {
    // N=8, PARTIAL-4: 4 replication groups, 2 clusters, degree 2
    val l = Layout(8, 4)
    assert(l.nChunks == 4)
    assert(l.degree == 2)
  }

  test("invalid layouts are rejected") {
    intercept[IllegalArgumentException](Layout(8, 3))
    intercept[IllegalArgumentException](Layout(4, 8))
    intercept[IllegalArgumentException](Layout(0, 1))
  }
}
