package repro.index

import repro.core.{Cost, Distances, ISax}

/** Distance mode: whole-matching Euclidean, or DTW with a Sakoe–Chiba
  * band of radius `radius` points (LB_Keogh + envelope-PAA lower bounds).
  */
sealed trait Mode extends Serializable
case object Euclidean extends Mode
final case class Dtw(radius: Int) extends Mode { require(radius >= 0) }

/** Search knobs (§3.2.1).
  *
  * @param nsb       number of RS-batches the root subtrees are grouped into
  *                  (paper: best when equal to the worker-thread count)
  * @param threshold TH — max leaves per priority queue; when the active PQ
  *                  of an RS-batch reaches TH it is closed and a fresh one
  *                  is started (Int.MaxValue = uncapped)
  * @param k         number of nearest neighbours
  * @param thresholdFit when set, (sigmoid fit, division factor): each query's
  *                  TH follows from its local initial BSF by
  *                  [[ThresholdModel.thresholdFor]] and `threshold` is unused
  */
final case class SearchParams(nsb: Int = 16, threshold: Int = Int.MaxValue,
                              mode: Mode = Euclidean, k: Int = 1,
                              thresholdFit: Option[(ThresholdModel.SigmoidFit, Double)] = None) {
  require(nsb >= 1 && k >= 1 && threshold >= 1)
}

/** One processed priority queue: which RS-batch built it, the priority of
  * its top element, leaves it held, and the ops spent processing it.
  */
final case class PqStat(batchId: Int, topLb: Double, leaves: Int, procOps: Long)

/** Full per-(chunk, query) execution record. `batchOps(b)` is the tree
  * traversal + PQ construction cost of RS-batch b — exactly what a stealing
  * node pays to *rebuild* that batch's queues from its own replica.
  */
final case class QueryRun(
    topK: List[(Double, Long)],   // ascending (dist, id), local answer(s)
    approxBsf: Double,            // local initial BSF (k-th best of approx leaf)
    approxOps: Long,
    batchOps: Array[Long],
    pqStats: Array[PqStat],       // in processed (sorted) order
    totalOps: Long,
    nLeavesTouched: Long,
    nRealDists: Long) {
  def bestDist: Double = if (topK.isEmpty) Double.PositiveInfinity else topK.head._1
}

/** Precomputed query context shared by all phases. */
final class QueryCtx(val values: Array[Double], val mode: Mode, w: Int,
                     segSizes: Array[Int]) {
  val paa: Array[Double] = repro.core.Paa.of(values, w)
  val sax: Array[Int] = ISax.word(paa)
  // DTW-only: LB_Keogh envelope and its PAAs
  val (envUp, envLo): (Array[Double], Array[Double]) = mode match {
    case Dtw(r)    => Distances.envelope(values, r)
    case Euclidean => (null, null)
  }
  val (envUpPaa, envLoPaa): (Array[Double], Array[Double]) = mode match {
    case Dtw(_)    => (repro.core.Paa.of(envUp, w), repro.core.Paa.of(envLo, w))
    case Euclidean => (null, null)
  }

  /** Per-query lower-bound table (MESSI-style): slot
    * `i * Stride + (1 << b) + sym` holds segment i's squared MINDIST term
    * for region `sym` at `b` bits. Built on first use, so a context that
    * only runs the approximate phase never pays for it.
    */
  lazy val lbTable: Array[Double] = mode match {
    case Euclidean => QueryCtx.table(paa, paa, segSizes)
    case Dtw(_)    => QueryCtx.table(envUpPaa, envLoPaa, segSizes)
  }

  /** Lower bound of the real distance for an index node's word region. */
  def nodeLb(node: TreeNode): Double = QueryCtx.nodeLb(lbTable, node)

  /** Lower bound of the real distance for the series at position `p` of
    * `index`, from its full-cardinality word (the index stores words, not
    * PAAs — MESSI-style).
    */
  def entryLb(index: IsaxIndex, p: Int): Double =
    QueryCtx.entryLb(lbTable, index.words, p * index.config.w, index.config.w)

  /** Real distance to the series at position `p` of `index`,
    * early-abandoning against `bound`. For DTW a LB_Keogh cascade runs
    * first (itself a DTW lower bound).
    */
  def realDist(index: IsaxIndex, p: Int, bound: Double, cost: Cost): Double = {
    val s = index.series(p)
    mode match {
      case Euclidean => Distances.edEarlyAbandon(values, s, bound, cost)
      case Dtw(r) =>
        val lbk = Distances.lbKeogh(s, envUp, envLo, bound, cost)
        if (lbk >= bound) Double.PositiveInfinity
        else Distances.dtwBand(values, s, r, bound, cost)
    }
  }
}

object QueryCtx {

  /** Table slots per segment: regions of every cardinality 2^b, b = 0..MaxBits. */
  private[index] val Stride: Int = 2 << ISax.MaxBits

  /** The table of `ISax.mindistEnvToWord`'s terms for envelope PAAs
    * `up`/`lo`; with `up == lo == paa` they are `mindistPaaToWord`'s. The
    * full-cardinality slots use the kernels' own expression; each coarser
    * region is the min of its two halves, which is bitwise the kernels'
    * value because iSAX breakpoints are nested (both halves share the
    * parent's outer breakpoints). Sums below run in the kernels' segment
    * order, so every bound is bit-identical to theirs.
    */
  private def table(up: Array[Double], lo: Array[Double], segSizes: Array[Int]): Array[Double] = {
    val full = 1 << ISax.MaxBits
    val bp = ISax.breakpoints(ISax.MaxBits)
    val tab = new Array[Double](up.length * Stride)
    var i = 0
    while (i < up.length) {
      val base = i * Stride
      // The kernels' term is nonzero only for regions below the envelope
      // (rhi < lo) or above it (rlo > up), never both as lo <= up: two runs
      // in from the ends, same expression; the symbols between stay 0.0.
      var sym = 0
      while (sym < full - 1 && lo(i) > bp(sym)) {
        val d = lo(i) - bp(sym)
        tab(base + full + sym) = segSizes(i) * d * d
        sym += 1
      }
      sym = full - 1
      while (sym > 0 && up(i) < bp(sym - 1)) {
        val d = bp(sym - 1) - up(i)
        tab(base + full + sym) = segSizes(i) * d * d
        sym -= 1
      }
      // slot c (1 <= c < full) is the region whose halves are slots 2c, 2c + 1;
      // slot 1 (b = 0, no bits) stays 0.0, as the kernels skip that segment.
      // Terms are never NaN or -0.0, so the compare below is math.min.
      var c = full - 1
      while (c > 1) {
        val lower = tab(base + 2 * c)
        val upper = tab(base + 2 * c + 1)
        tab(base + c) = if (lower <= upper) lower else upper
        c -= 1
      }
      i += 1
    }
    tab
  }

  @inline private[index] def nodeLb(tab: Array[Double], node: TreeNode): Double = {
    val word = node.word
    val bits = node.bits
    var acc = 0.0
    var i = 0
    while (i < word.length) {
      acc += tab(i * Stride + (1 << bits(i)) + word(i))
      i += 1
    }
    math.sqrt(acc)
  }

  /** The bound of the `w`-symbol word at `words(off)`. */
  @inline private[index] def entryLb(tab: Array[Double], words: Array[Byte], off: Int, w: Int): Double = {
    var acc = 0.0
    var i = 0
    var slot = 1 << ISax.MaxBits
    while (i < w) {
      acc += tab(slot + IsaxIndex.symbolAt(words, off + i))
      slot += Stride
      i += 1
    }
    math.sqrt(acc)
  }
}

/** Bounded answer list over (dist, id): keeps the k smallest distances seen.
  * Ids are deduplicated — the approximate phase and the PQ phase may both
  * visit the same leaf, and a series must count once in a k-NN answer.
  * An offer is taken only when strictly below `bound` and its id is not
  * already held. Held pairs stay in ascending distance order, ties in
  * arrival order; once k are held, a taken offer drops the last pair.
  */
final class KnnHeap(val k: Int) {
  require(k >= 1, s"k must be positive: $k")
  private val dists = new Array[Double](k)
  private val ids = new Array[Long](k)
  private var size = 0
  private var _bound = Double.PositiveInfinity

  def bound: Double = _bound

  def offer(dist: Double, id: Long): Boolean = {
    if (!(dist < _bound)) return false
    var i = 0
    while (i < size) { if (ids(i) == id) return false; i += 1 }
    // insert after every held pair with dist <= the new one
    var at = if (size < k) size else k - 1
    while (at > 0 && dists(at - 1) > dist) {
      dists(at) = dists(at - 1); ids(at) = ids(at - 1)
      at -= 1
    }
    dists(at) = dist; ids(at) = id
    if (size < k) size += 1
    if (size == k) _bound = dists(k - 1)
    true
  }

  def toSortedList: List[(Double, Long)] = List.tabulate(size)(i => (dists(i), ids(i)))
}

/** One exact search's priority queues in primitive arrays: every touched
  * leaf with its lower bound in traversal order, cut into queues; queue q
  * holds leaves `[start(q), start(q + 1))` and was built by RS-batch
  * `batch(q)`.
  */
private final class LeafQueues {
  var leaves = new Array[TreeNode](64)
  var lbs = new Array[Double](64)
  var nLeaves = 0
  var start = new Array[Int](17)
  var batch = new Array[Int](16)
  var nQueues = 0

  def add(leaf: TreeNode, lb: Double): Unit = {
    if (nLeaves == leaves.length) {
      leaves = java.util.Arrays.copyOf(leaves, nLeaves * 2)
      lbs = java.util.Arrays.copyOf(lbs, nLeaves * 2)
    }
    leaves(nLeaves) = leaf; lbs(nLeaves) = lb
    nLeaves += 1
  }

  /** Leaves in the open queue. */
  def open: Int = nLeaves - start(nQueues)

  /** Close the open queue, if it holds any leaf, as one of batch `b`. */
  def close(b: Int): Unit = if (open > 0) {
    if (nQueues == batch.length) {
      batch = java.util.Arrays.copyOf(batch, nQueues * 2)
      start = java.util.Arrays.copyOf(start, nQueues * 2 + 1)
    }
    batch(nQueues) = b
    nQueues += 1
    start(nQueues) = nLeaves
  }
}

object Search {

  /** Approximate search: descend to the leaf matching the query word and
    * scan it — gives the initial BSF (§2, Fig. 2). Returns the heap of the
    * k best leaf candidates (real distances to actual series). The query
    * must be as long as the indexed series; [[exact]] relies on this check.
    */
  def approx(index: IsaxIndex, ctx: QueryCtx, cost: Cost, k: Int = 1): KnnHeap = {
    require(ctx.values.length == index.length,
            s"query of ${ctx.values.length} points against series of ${index.length}")
    val heap = new KnnHeap(k)
    val roots = index.roots
    if (roots.isEmpty) return heap
    val slot = index.rootSlots(ISax.rootKey(ctx.sax))
    val root = if (slot != null) slot else {
      // no matching subtree: take the root with the smallest lower bound
      cost.add(roots.length.toLong * ctx.paa.length)
      roots.minBy(ctx.nodeLb)
    }
    var node = root
    while (!node.isLeaf) {
      cost.add(1)
      val b   = node.bits(node.splitSeg)
      val bit = (ctx.sax(node.splitSeg) >>> (ISax.MaxBits - b - 1)) & 1
      val next = if (bit == 0) node.child0 else node.child1
      // an empty sibling can exist right after a split; fall to the other
      node = if (next.isLeaf && next.size == 0) (if (bit == 0) node.child1 else node.child0)
             else next
      if (node.isLeaf && node.size == 0) return heap
    }
    var i = 0
    while (i < node.size) {
      val p = node.positions(i)
      val d = ctx.realDist(index, p, heap.bound, cost)
      heap.offer(d, index.ids(p))
      i += 1
    }
    heap
  }

  /** Exact search (§3.2.1): approximate phase for the initial BSF, tree
    * traversal per RS-batch populating size-thresholded priority queues,
    * PQ array sorted by top priority, then in-order PQ processing with
    * per-series lower-bound filtering and early-abandoning real distances.
    * Every node and entry lower bound is a few reads of the query's
    * `lbTable`.
    *
    * @param startBound an externally shared BSF (k-th best); PositiveInfinity
    *                   when the node has received nothing. The local answer
    *                   list only ever contains local series, so merging
    *                   per-chunk results stays exact under any sharing.
    */
  def exact(index: IsaxIndex, query: Array[Double], params: SearchParams,
            startBound: Double = Double.PositiveInfinity): QueryRun = {
    val cost = new Cost
    val ctx = new QueryCtx(query, params.mode, index.config.w, index.segSizes)

    val heap = approx(index, ctx, cost, params.k)
    val approxBsf = heap.bound
    val approxOps = cost.ops
    var bound = math.min(startBound, heap.bound)
    val th = params.thresholdFit.fold(params.threshold) {
      case (fit, factor) => ThresholdModel.thresholdFor(fit, approxBsf, factor)
    }

    val tab = ctx.lbTable
    val w = ctx.paa.length
    val ids = index.ids
    val words = index.words
    val roots = index.roots
    val nsb = math.min(params.nsb, roots.length)
    val batchOps = new Array[Long](nsb)
    val queues = new LeafQueues
    var stack = new Array[TreeNode](64)
    var leavesTouched = 0L

    // ---- tree traversal phase: prune with the initial bound ----
    var b = 0
    while (b < nsb) {
      val before = cost.ops
      val lo = b * roots.length / nsb
      val hi = (b + 1) * roots.length / nsb
      var r = lo
      while (r < hi) {
        stack(0) = roots(r)
        var top = 1
        while (top > 0) {
          top -= 1
          val node = stack(top)
          cost.add(w)
          val lb = QueryCtx.nodeLb(tab, node)
          if (lb < bound) {
            if (node.isLeaf) {
              if (node.size > 0) {
                queues.add(node, lb)
                leavesTouched += 1
                if (queues.open >= th) queues.close(b)
              }
            } else {
              if (top + 2 > stack.length) stack = java.util.Arrays.copyOf(stack, stack.length * 2)
              stack(top) = node.child0
              stack(top + 1) = node.child1
              top += 2
            }
          }
        }
        r += 1
      }
      queues.close(b)
      batchOps(b) = cost.ops - before
      b += 1
    }

    // ---- PQ preprocessing: sort each queue, then the queues by top priority ----
    val nQueues = queues.nQueues
    val start = queues.start
    val lbs = queues.lbs
    val leafOrder = Array.range(0, queues.nLeaves)
    val scratch = new Array[Int](queues.nLeaves)
    val tops = new Array[Double](nQueues)
    var q = 0
    while (q < nQueues) {
      stableSortBy(lbs, leafOrder, start(q), start(q + 1), scratch)
      tops(q) = lbs(leafOrder(start(q)))
      q += 1
    }
    val queueOrder = Array.range(0, nQueues)
    stableSortBy(tops, queueOrder, 0, nQueues, scratch)

    // ---- PQ processing phase ----
    var nReal = 0L
    val stats = new Array[PqStat](nQueues)
    var p = 0
    while (p < nQueues) {
      val qi = queueOrder(p)
      val before = cost.ops
      var li = start(qi)
      val end = start(qi + 1)
      var abandoned = false
      while (li < end && !abandoned) {
        val leaf = leafOrder(li)
        if (lbs(leaf) >= bound) abandoned = true // queue is lb-sorted: the rest prune too
        else {
          val node = queues.leaves(leaf)
          val positions = node.positions
          var ei = 0
          while (ei < node.size) {
            val pos = positions(ei)
            cost.add(w)
            if (QueryCtx.entryLb(tab, words, pos * w, w) < bound) {
              val d = ctx.realDist(index, pos, bound, cost)
              nReal += 1
              if (heap.offer(d, ids(pos))) bound = math.min(bound, heap.bound)
            }
            ei += 1
          }
        }
        li += 1
      }
      stats(p) = PqStat(queues.batch(qi), tops(qi), end - start(qi), cost.ops - before)
      p += 1
    }

    QueryRun(heap.toSortedList, approxBsf, approxOps, batchOps, stats,
             totalOps = cost.ops, nLeavesTouched = leavesTouched, nRealDists = nReal)
  }

  /** Stable ascending sort of `idx[from, until)` by `key(idx(_))`: insertion
    * sort for short runs, merge sort above. Equal keys keep their order,
    * which decides the PQ order and so the op counts. `tmp` must be as long
    * as `idx`.
    */
  private[index] def stableSortBy(key: Array[Double], idx: Array[Int], from: Int, until: Int,
                                  tmp: Array[Int]): Unit =
    if (until - from <= 16) {
      var i = from + 1
      while (i < until) {
        val x = idx(i)
        val kx = key(x)
        var j = i - 1
        while (j >= from && key(idx(j)) > kx) { idx(j + 1) = idx(j); j -= 1 }
        idx(j + 1) = x
        i += 1
      }
    } else {
      val mid = (from + until) >>> 1
      stableSortBy(key, idx, from, mid, tmp)
      stableSortBy(key, idx, mid, until, tmp)
      if (key(idx(mid)) < key(idx(mid - 1))) {
        // merge: the left run moves to tmp, the right run's tail stays in place
        System.arraycopy(idx, from, tmp, from, mid - from)
        var i = from; var j = mid; var o = from
        while (i < mid) {
          if (j < until && key(idx(j)) < key(tmp(i))) { idx(o) = idx(j); j += 1 }
          else { idx(o) = tmp(i); i += 1 }
          o += 1
        }
      }
    }

  /** Brute-force reference (tests): exact k-NN by scanning everything. */
  def bruteForce(series: Iterator[(Long, Array[Double])], query: Array[Double],
                 mode: Mode = Euclidean, k: Int = 1): List[(Double, Long)] = {
    val cost = new Cost
    val heap = new KnnHeap(k)
    series.foreach { case (id, v) =>
      val d = mode match {
        case Euclidean => Distances.ed(query, v)
        case Dtw(r)    => Distances.dtwBand(query, v, r, Double.PositiveInfinity, cost)
      }
      heap.offer(d, id)
    }
    heap.toSortedList
  }
}
