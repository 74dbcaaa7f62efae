package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ISax, SeriesGen}
import repro.core.SeriesGen.{DatasetSpec, presets}

/** The per-query lower-bound table must reproduce the reference MINDIST
  * kernels bit for bit: PQ order, pruning and so every op count depend on
  * the exact double each bound returns.
  */
class QueryCtxSpec extends AnyFunSuite {

  // Random at length 250 leaves uneven segments for w = 4, 8 and 16.
  private val specs: Seq[DatasetSpec] = Seq(
    presets.random(400), presets.seismic(400), presets.deep(400), presets.random(400, length = 250))

  private val modes: Seq[Mode] = Seq(Euclidean, Dtw(0), Dtw(3), Dtw(12))

  private def nodes(root: TreeNode): Seq[TreeNode] =
    if (root.isLeaf) Seq(root) else root +: (nodes(root.child0) ++ nodes(root.child1))

  for (spec <- specs; w <- Seq(4, 8, 16)) {
    test(s"table bounds == ISax kernels for every node and entry (${spec.name}, length=${spec.length}, w=$w)") {
      val data = (0L until spec.n.toLong).map(id => (id, SeriesGen.series(spec, id)))
      val idx = IsaxIndex.build(data.iterator, IndexConfig(w = w, leafCapacity = 8))
      val all = idx.rootsSorted.flatMap { case (_, r) => nodes(r) }
      val entries = all.filter(_.isLeaf).flatMap(l => l.positions.take(l.size))
      assert(entries.length == spec.n)
      val fullBits = Array.fill(w)(ISax.MaxBits)
      for (mode <- modes; q <- 0 until 3) {
        val ctx = new QueryCtx(SeriesGen.query(spec, q), mode, w, idx.segSizes)
        def kernel(word: Array[Int], bits: Array[Int]): Double = mode match {
          case Euclidean => ISax.mindistPaaToWord(ctx.paa, idx.segSizes, word, bits)
          case Dtw(_)    => ISax.mindistEnvToWord(ctx.envUpPaa, ctx.envLoPaa, idx.segSizes, word, bits)
        }
        all.foreach { n =>
          val (got, want) = (ctx.nodeLb(n), kernel(n.word, n.bits))
          assert(got == want, s"$mode q=$q node bits=${n.bits.mkString(",")}: $got != $want")
        }
        entries.foreach { p =>
          val word = Array.tabulate(w)(idx.symbol(p, _))
          val (got, want) = (ctx.entryLb(idx, p), kernel(word, fullBits))
          assert(got == want, s"$mode q=$q entry ${idx.ids(p)}: $got != $want")
        }
      }
    }
  }
}
