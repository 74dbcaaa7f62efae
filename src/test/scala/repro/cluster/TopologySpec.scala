package repro.cluster

import org.scalatest.funsuite.AnyFunSuite

class TopologySpec extends AnyFunSuite {

  // every power-of-two k up to nNodes: 1 + log2(nNodes) layouts each
  for (nNodes <- Seq(1, 2, 4, 8, 16); k <- Iterator.iterate(1)(_ * 2).takeWhile(_ <= nNodes)) {
    val layout = Layout(nNodes, k)

    test(s"PARTIAL-$k on $nNodes nodes: groups partition the node set") {
      val all = (0 until k).flatMap(layout.group)
      assert(all.sorted == (0 until nNodes))
      (0 until k).foreach(c => assert(layout.group(c).size == layout.degree))
    }

    test(s"PARTIAL-$k on $nNodes nodes: clusters each cover every chunk once") {
      assert(layout.clusters.size == layout.degree)
      layout.clusters.foreach { cl =>
        assert(cl.map(layout.chunkOfNode).sorted == (0 until k))
      }
      assert(layout.clusters.flatten.sorted == (0 until nNodes))
    }

    test(s"PARTIAL-$k on $nNodes nodes: node chunk matches its group") {
      (0 until nNodes).foreach { node =>
        assert(layout.group(layout.chunkOfNode(node)).contains(node))
      }
    }
  }

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
    assert(l.clusters.size == 2)
    assert(l.group(0).size == 2)
  }

  test("invalid layouts are rejected") {
    intercept[IllegalArgumentException](Layout(8, 3))
    intercept[IllegalArgumentException](Layout(4, 8))
    intercept[IllegalArgumentException](Layout(0, 1))
  }
}
