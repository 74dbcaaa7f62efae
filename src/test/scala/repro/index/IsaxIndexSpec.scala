package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Cost, ISax, Paa, SeriesGen}
import repro.core.SeriesGen.presets

class IsaxIndexSpec extends AnyFunSuite {

  private def dataset(n: Int, name: String = "Seismic"): Seq[(Long, Array[Double])] = {
    val spec = presets.byName(name, n)
    (0L until n.toLong).map(id => (id, SeriesGen.series(spec, id)))
  }

  private def collectLeaves(root: TreeNode): Seq[TreeNode] =
    if (root.isLeaf) Seq(root)
    else collectLeaves(root.child0) ++ collectLeaves(root.child1)

  /** The chunk positions a leaf holds, in its order. */
  private def positions(leaf: TreeNode): Seq[Int] = leaf.positions.take(leaf.size).toSeq

  /** The full-cardinality word stored for position `p`. */
  private def word(idx: IsaxIndex, p: Int): Array[Int] = Array.tabulate(idx.config.w)(idx.symbol(p, _))

  for (n <- Seq(50, 300, 1000); cap <- Seq(8, 32); w <- Seq(4, 8)) {
    test(s"index holds every series exactly once (n=$n, cap=$cap, w=$w)") {
      val idx = IsaxIndex.build(dataset(n).iterator, IndexConfig(w, cap))
      val ids = idx.rootsSorted.flatMap { case (_, r) => collectLeaves(r) }
        .flatMap(positions).map(idx.ids(_))
      assert(ids.length == n)
      assert(ids.toSet == (0L until n.toLong).toSet)
      assert(idx.nSeries == n)
    }
  }

  test("leaves respect capacity unless every segment is at max cardinality") {
    val idx = IsaxIndex.build(dataset(2000).iterator, IndexConfig(w = 8, leafCapacity = 16))
    idx.rootsSorted.foreach { case (_, root) =>
      collectLeaves(root).foreach { leaf =>
        if (leaf.size > 16) assert(leaf.bits.forall(_ == ISax.MaxBits))
      }
    }
  }

  test("every entry's word matches its leaf's (word, bits) prefix") {
    val idx = IsaxIndex.build(dataset(800).iterator, IndexConfig(w = 8, leafCapacity = 8))
    idx.rootsSorted.foreach { case (_, root) =>
      collectLeaves(root).foreach { leaf =>
        positions(leaf).foreach { p =>
          leaf.bits.indices.foreach { seg =>
            val b = leaf.bits(seg)
            assert((idx.symbol(p, seg) >>> (ISax.MaxBits - b)) == leaf.word(seg),
                   s"seg=$seg bits=$b")
          }
        }
      }
    }
  }

  test("inner nodes carry no entries; children refine the parent word") {
    val idx = IsaxIndex.build(dataset(800).iterator, IndexConfig(w = 4, leafCapacity = 8))
    def walk(node: TreeNode): Unit =
      if (!node.isLeaf) {
        assert(node.positions == null && node.size == 0)
        val seg = node.splitSeg
        Seq(node.child0, node.child1).zipWithIndex.foreach { case (c, bit) =>
          assert(c.bits(seg) == node.bits(seg) + 1)
          assert(c.word(seg) == node.word(seg) * 2 + bit)
          walk(c)
        }
      }
    idx.rootsSorted.foreach { case (_, r) => walk(r) }
  }

  test("root keys agree with the entries they hold") {
    val idx = IsaxIndex.build(dataset(500).iterator, IndexConfig(w = 8, leafCapacity = 16))
    idx.rootsSorted.foreach { case (key, root) =>
      collectLeaves(root).flatMap(positions).foreach { p =>
        assert(ISax.rootKey(word(idx, p)) == key)
      }
    }
  }

  test("buffer counts sum to n and match subtree populations") {
    val idx = IsaxIndex.build(dataset(600).iterator, IndexConfig())
    val counts = idx.bufferCounts
    assert(counts.values.sum == 600)
    idx.rootsSorted.foreach { case (key, root) =>
      assert(counts(key) == collectLeaves(root).map(_.size).sum)
    }
  }

  test("root order is computed once, sorted by key, and covers every buffer") {
    val idx = IsaxIndex.build(dataset(600, "Random").iterator, IndexConfig(w = 8, leafCapacity = 16))
    val roots = idx.rootsSorted
    assert(roots eq idx.rootsSorted)
    val keys = roots.map(_._1)
    assert(keys.sliding(2).forall(p => p.length < 2 || p(0) < p(1)))
    assert(keys.toSet == idx.bufferCounts.keySet)
    keys.zipWithIndex.foreach { case (key, i) =>
      assert(idx.rootSlots(key) eq roots(i)._2)
      assert(idx.roots(i) eq roots(i)._2)
    }
    assert(idx.rootSlots.length == 256)
    (0 until 256).filterNot(keys.toSet).foreach(key => assert(idx.rootSlots(key) == null))
  }

  test("build stats are consistent") {
    val idx = IsaxIndex.build(dataset(400).iterator, IndexConfig(w = 8, leafCapacity = 16))
    val bs = idx.buildStats
    assert(bs.chunk == 0)
    assert(bs.nSeries == 400)
    assert(bs.bufferOps == 400L * 256)
    assert(bs.treeOps > 0)
    assert(bs.nRoots == idx.rootsSorted.length)
    assert(bs.indexBytes > 0)
    // leaves/inner counts match an explicit walk
    var leaves = 0; var inner = 0
    def walk(n: TreeNode): Unit = if (n.isLeaf) leaves += 1 else { inner += 1; walk(n.child0); walk(n.child1) }
    idx.rootsSorted.foreach { case (_, r) => walk(r) }
    assert(bs.nLeaves == leaves && bs.nInner == inner)
  }

  test("index size is small relative to the raw data (Fig. 14 sanity)") {
    val n = 2000
    val idx = IsaxIndex.build(dataset(n).iterator, IndexConfig())
    val raw = n.toLong * 256 * 8
    assert(idx.buildStats.indexBytes < raw / 4)
  }

  test("clustered data concentrates into fewer buffers than random data") {
    val nClusteredBufs = IsaxIndex.build(dataset(1000, "Astro").iterator, IndexConfig()).bufferCounts.size
    val nRandomBufs    = IsaxIndex.build(dataset(1000, "Random").iterator, IndexConfig()).bufferCounts.size
    assert(nClusteredBufs < nRandomBufs)
  }

  test("ragged series are rejected") {
    val bad = Iterator((0L, new Array[Double](64)), (1L, new Array[Double](65)))
    intercept[IllegalArgumentException](IsaxIndex.build(bad, IndexConfig()))
    val longChunk = Array.tabulate(1000)(i => new Array[Double](if (i == 700) 65 else 64))
    val e = intercept[IllegalArgumentException](
      IsaxIndex.build(0, Array.tabulate(1000)(_.toLong), longChunk(_), IndexConfig()))
    assert(e.getMessage.contains("id=700"))
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException](IsaxIndex.build(Iterator.empty, IndexConfig()))
    intercept[IllegalArgumentException](
      IsaxIndex.build(0, Array.empty[Long], _ => new Array[Double](64), IndexConfig()))
  }

  /** Everything a build decides: root keys, each leaf's id sequence, stats. */
  private def shape(idx: IsaxIndex): (Seq[Int], Seq[Seq[Long]], BuildStats) =
    (idx.rootsSorted.map(_._1),
     idx.rootsSorted.flatMap { case (_, r) => collectLeaves(r) }.map(positions(_).map(idx.ids(_))),
     idx.buildStats)

  private val seismic = presets.byName("Seismic", 4096)
  private val tightConfig = IndexConfig(w = 8, leafCapacity = 8)
  private def seismicBuild(): IsaxIndex =
    IsaxIndex.build(0, Array.tabulate(4096)(_.toLong), i => SeriesGen.series(seismic, i.toLong), tightConfig)

  test("every leaf holds its entries in strictly ascending id order") {
    val (_, leaves, stats) = shape(seismicBuild())
    assert(stats.nLeaves > 100, "leafCapacity 8 must split many times")
    leaves.foreach(ids => assert(ids.sliding(2).forall(p => p.length < 2 || p(0) < p(1)), ids))
  }

  test("twenty builds of one chunk are identical") {
    val first = shape(seismicBuild())
    (1 until 20).foreach(_ => assert(shape(seismicBuild()) == first))
  }

  test("four builds on four threads at once equal a lone build") {
    val lone = shape(seismicBuild())
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val start = new java.util.concurrent.CountDownLatch(1)
      val builds = (0 until 4).map(_ => pool.submit(() => { start.await(); shape(seismicBuild()) }))
      start.countDown()
      builds.foreach(f => assert(f.get() == lone))
    } finally pool.shutdown()
  }

  test("a series that fails to generate fails the build") {
    val e = intercept[IllegalArgumentException](
      IsaxIndex.build(0, Array.tabulate(4096)(_.toLong), { i =>
        require(i != 3001, "no series at position 3001")
        SeriesGen.series(seismic, i.toLong)
      }, tightConfig))
    assert(e.getMessage.contains("no series at position 3001"))
  }

  test("every position lies in exactly one leaf, ascending within it") {
    val idx = seismicBuild()
    val leaves = idx.rootsSorted.flatMap { case (_, r) => collectLeaves(r) }.map(positions)
    assert(leaves.flatten.sorted == (0 until 4096))
    leaves.foreach(ps => assert(ps.sliding(2).forall(p => p.length < 2 || p(0) < p(1)), ps))
  }

  test("the words column holds each series' full-cardinality word") {
    // length 250 splits unevenly into 8 and 16 segments
    val random250 = presets.random(300, length = 250)
    val uneven = (0L until 300L).map(id => (id, SeriesGen.series(random250, id)))
    for ((data, w) <- Seq(4, 8, 16).map(dataset(300, "Random") -> _) ++ Seq(8, 16).map(uneven -> _)) {
      val idx = IsaxIndex.build(data.iterator, IndexConfig(w = w, leafCapacity = 8))
      assert(idx.words.length == 300 * w)
      data.indices.foreach { p =>
        assert(idx.series(p) eq data(p)._2)
        assert(idx.ids(p) == data(p)._1)
        assert(word(idx, p).sameElements(ISax.word(Paa.of(idx.series(p), w))), s"w=$w p=$p length=${idx.length}")
      }
    }
  }

  test("symbols above 127 are read unsigned: root keys, descent and bounds match ISax.word") {
    // Constant +10 series sit in the top region (symbol 255, stored as byte -1),
    // constant -10 series in the bottom one; the leaves overflow down to max bits.
    val w = 8
    val data = (0 until 100).map { i =>
      (i.toLong, Array.fill(64)(if (i % 4 == 0) -10.0 - i * 1e-3 else 10.0 + i * 1e-3))
    }
    val idx = IsaxIndex.build(data.iterator, IndexConfig(w = w, leafCapacity = 4))
    assert(idx.rootsSorted.map(_._1) == Seq(0, 255))
    val fullBits = Array.fill(w)(ISax.MaxBits)
    val kernelWords = data.map { case (_, v) => ISax.word(Paa.of(v, w)) }
    assert(kernelWords.flatten.forall(s => s == 0 || s == 255))
    data.indices.foreach(p => assert(word(idx, p).sameElements(kernelWords(p))))
    idx.rootsSorted.foreach { case (key, root) =>
      collectLeaves(root).foreach { leaf =>
        positions(leaf).foreach { p =>
          assert(ISax.rootKey(kernelWords(p)) == key)
          leaf.bits.indices.foreach { seg =>
            assert((kernelWords(p)(seg) >>> (ISax.MaxBits - leaf.bits(seg))) == leaf.word(seg))
          }
        }
      }
    }
    val top = collectLeaves(idx.rootSlots(255))
    assert(top.exists(l => l.size > 4 && l.bits.forall(_ == ISax.MaxBits)), "the top leaf must split to max bits")
    for (q <- Seq(Array.fill(64)(10.0), Array.fill(64)(0.5), Array.fill(64)(-10.0))) {
      val ctx = new QueryCtx(q, Euclidean, w, idx.segSizes)
      data.indices.foreach { p =>
        val want = ISax.mindistPaaToWord(ctx.paa, idx.segSizes, kernelWords(p), fullBits)
        assert(ctx.entryLb(idx, p) == want, s"p=$p")
      }
      val approx = Search.approx(idx, ctx, new Cost).toSortedList
      val exact = Search.exact(idx, q, SearchParams(nsb = 2)).topK
      val brute = Search.bruteForce(data.iterator, q)
      assert(exact.map(_._2) == brute.map(_._2) && math.abs(exact.head._1 - brute.head._1) < 1e-9)
      assert(approx.nonEmpty && approx.forall { case (_, id) => (id % 4 == 0) == (q(0) < 0) })
    }
  }

  test("Spark's size estimate of an index counts at least its raw series") {
    val n = 16384
    val spec = presets.random(n)
    val idx = IsaxIndex.build(0, Array.tabulate(n)(_.toLong), i => SeriesGen.series(spec, i.toLong), IndexConfig())
    val raw = n.toLong * spec.length * 8
    val estimate = org.apache.spark.util.SizeEstimator.estimate(idx)
    assert(estimate >= raw, s"estimate $estimate < raw series bytes $raw")
  }
}
