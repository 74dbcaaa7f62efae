package repro.index

import scala.collection.immutable
import repro.core.{Blocks, ISax, Paa}

/** Index build configuration.
  *
  * @param w            PAA / iSAX segments
  * @param leafCapacity max series per leaf before a cardinality-promotion split
  */
final case class IndexConfig(w: Int = 8, leafCapacity: Int = 64) {
  require(w >= 2 && w <= 16, s"w out of range: $w")
  require(leafCapacity >= 2, s"leafCapacity too small: $leafCapacity")
}

/** iSAX tree node. A node is a leaf while `splitSeg < 0`; splitting
  * promotes one segment's cardinality by one bit and redistributes the
  * leaf's series into the two children (iSAX 2.0-style, round-robin over
  * the segments with the fewest bits).
  *
  * As in MESSI, a leaf holds no summaries and no raw data, only the chunk
  * positions of its series: the first `size` slots of `positions`, in
  * insertion order. Each position's id, series and full-cardinality word
  * live in the [[IsaxIndex]]'s columns, and entry-level lower bounds come
  * from that word (no PAA is stored). An inner node's `positions` is null.
  */
final class TreeNode(val word: Array[Int], val bits: Array[Int]) {
  private[index] var positions: Array[Int] = new Array[Int](16)
  private[index] var size: Int = 0
  var splitSeg: Int = -1
  var child0: TreeNode = _
  var child1: TreeNode = _
  def isLeaf: Boolean = splitSeg < 0

  private[index] def add(p: Int): Unit = {
    if (size == positions.length) positions = java.util.Arrays.copyOf(positions, size * 2)
    positions(size) = p
    size += 1
  }
}

/** Index build statistics of chunk `chunk` (feeds Fig. 14 / Fig. 17 benches). */
final case class BuildStats(chunk: Int, nSeries: Long, bufferOps: Long, treeOps: Long,
                            indexBytes: Long, nLeaves: Int, nInner: Int, nRoots: Int)

/** In-memory iSAX index over one data chunk (the per-node index of §3.2.1).
  *
  * The chunk is stored as columns indexed by position `p`: `ids(p)`, the
  * series `series(p)` (the caller's array, not copied) and its
  * full-cardinality word, `w` symbols at `words(p * w)`; a symbol has
  * [[ISax.MaxBits]] = 8 bits, so it fits a byte, read unsigned by
  * [[IsaxIndex.symbolAt]]. Construction mirrors the single-node parallel
  * indexes of §2: fill the columns in parallel blocks (the "summarization
  * buffer" pass), then insert the positions one by one, in chunk order,
  * each into the root subtree of its first-bit word. As MESSI's
  * summarization buffers, the subtrees sit in a dense array indexed by that
  * word's [[ISax.rootKey]]; `rootsSorted` lists the non-empty ones in key
  * order, and the searcher groups consecutive subtrees into RS-batches.
  */
final class IsaxIndex private (val chunk: Int, val config: IndexConfig,
                               private[index] val ids: Array[Long],
                               private[index] val series: Array[Array[Double]],
                               private[index] val words: Array[Byte],
                               val segSizes: Array[Int]) {
  val length: Int = series(0).length
  private var _treeOps = 0L

  /** The root subtree of each packed first-bit word, null where no series
    * has that word; callers must not write.
    */
  private[index] val rootSlots: Array[TreeNode] = new Array[TreeNode](1 << config.w)

  /** Non-empty root subtrees ordered by packed first-bit word (stable
    * RS-batch ids), listed on first use after the build.
    */
  lazy val rootsSorted: IndexedSeq[(Int, TreeNode)] =
    immutable.ArraySeq.unsafeWrapArray(rootSlots.indices.filter(rootSlots(_) != null).map(k => k -> rootSlots(k)).toArray)

  /** The subtrees of `rootsSorted`, for the search loops; callers must not write. */
  private[index] lazy val roots: Array[TreeNode] = rootsSorted.map(_._2).toArray

  /** Summarization-buffer histogram: packed root word -> series count. */
  def bufferCounts: Map[Int, Int] = rootsSorted.map { case (key, root) => key -> countSeries(root) }.toMap

  def nSeries: Long = ids.length.toLong

  /** Full-cardinality symbol of segment `seg` of the series at position `p`. */
  private[index] def symbol(p: Int, seg: Int): Int = IsaxIndex.symbolAt(words, p * config.w + seg)

  private def countSeries(n: TreeNode): Int =
    if (n.isLeaf) n.size else countSeries(n.child0) + countSeries(n.child1)

  /** `ISax.rootKey` of the word at position `p`. */
  private def rootKey(p: Int): Int = {
    var k = 0
    var i = 0
    while (i < config.w) {
      k = (k << 1) | (symbol(p, i) >>> (ISax.MaxBits - 1))
      i += 1
    }
    k
  }

  private def insert(p: Int): Unit = {
    val key = rootKey(p)
    if (rootSlots(key) == null) {
      val word = Array.tabulate(config.w)(symbol(p, _) >>> (ISax.MaxBits - 1))
      rootSlots(key) = new TreeNode(word, Array.fill(config.w)(1))
    }
    var node = rootSlots(key)
    _treeOps += 1
    while (!node.isLeaf) {
      val b   = node.bits(node.splitSeg) // child bit depth already = b after split
      val bit = (symbol(p, node.splitSeg) >>> (ISax.MaxBits - b - 1)) & 1
      node = if (bit == 0) node.child0 else node.child1
      _treeOps += 1
    }
    node.add(p)
    if (node.size > config.leafCapacity) split(node)
  }

  /** Split `node` by promoting the segment with the fewest bits (lowest
    * index on ties); gives up (oversized leaf) when every segment is at
    * max cardinality. Children that still overflow are split recursively.
    * Each child keeps its positions in the parent's order.
    */
  private def split(node: TreeNode): Unit = {
    var seg = -1
    var best = ISax.MaxBits
    var i = 0
    while (i < config.w) {
      if (node.bits(i) < best) { best = node.bits(i); seg = i }
      i += 1
    }
    if (seg < 0 || node.bits(seg) >= ISax.MaxBits) return // all maxed: oversized leaf
    val nb = node.bits(seg) + 1
    def childNode(bit: Int): TreeNode = {
      val w2 = node.word.clone(); val b2 = node.bits.clone()
      w2(seg) = node.word(seg) * 2 + bit
      b2(seg) = nb
      new TreeNode(w2, b2)
    }
    val c0 = childNode(0); val c1 = childNode(1)
    val moved = node.positions
    val nMoved = node.size
    node.positions = null
    node.size = 0
    node.splitSeg = seg
    node.child0 = c0; node.child1 = c1
    i = 0
    while (i < nMoved) {
      val p = moved(i)
      val bit = (symbol(p, seg) >>> (ISax.MaxBits - nb)) & 1
      (if (bit == 0) c0 else c1).add(p)
      _treeOps += 1
      i += 1
    }
    if (c0.size > config.leafCapacity) split(c0)
    if (c1.size > config.leafCapacity) split(c1)
  }

  def buildStats: BuildStats = {
    var leaves = 0; var inner = 0; var entryCount = 0L
    def walk(n: TreeNode): Unit =
      if (n.isLeaf) { leaves += 1; entryCount += n.size }
      else { inner += 1; walk(n.child0); walk(n.child1) }
    roots.foreach(walk)
    // Index payload: per entry id(8) + data pointer(8) + packed word (w
    // bytes); per node word/bits/pointers ~ 64B. Raw data is NOT index.
    val bytes = entryCount * (16L + config.w) + (leaves + inner) * 64L
    BuildStats(chunk, nSeries, bufferOps = nSeries * length, treeOps = _treeOps,
               indexBytes = bytes, nLeaves = leaves, nInner = inner, nRoots = roots.length)
  }
}

object IsaxIndex {

  /** The symbol stored at `words(i)`, read unsigned: symbols run 0..255. */
  @inline private[index] def symbolAt(words: Array[Byte], i: Int): Int = words(i) & 0xff

  /** Summarize + index a chunk given as `(id, series)` pairs, inserted in
    * iteration order, as chunk 0; see the id-array form.
    */
  def build(seriesIt: Iterator[(Long, Array[Double])], config: IndexConfig): IsaxIndex = {
    val (ids, values) = seriesIt.toArray.unzip
    build(0, ids, values(_), config)
  }

  /** Summarize + index chunk `chunk`, whose position `i` holds series `ids(i)`,
    * `seriesAt(i)`; the index keeps both `ids` and the returned arrays.
    * Summaries (series, full-cardinality word) are computed in parallel
    * [[Blocks]] on the common pool, each position summing its segments in
    * place and writing only its own `w` word slots, so `seriesAt` must be a
    * pure function of `i`; the positions then enter the tree one by one in
    * order, so every leaf, split and op count is that of a sequential
    * build. [[IsaxIndex.buildStats]] counts its ops: one per point for
    * summarization and one per tree-node visit during insertion.
    */
  def build(chunk: Int, ids: Array[Long], seriesAt: Int => Array[Double], config: IndexConfig): IsaxIndex = {
    require(ids.nonEmpty, "cannot build an index over an empty chunk")
    val w = config.w
    val first = seriesAt(0)
    val length = first.length
    val segSizes = Paa.segmentSizes(length, w)
    val words = new Array[Byte](ids.length * w)
    val series = Blocks.tabulate(ids.length) { i =>
      val values = if (i == 0) first else seriesAt(i)
      if (values.length != length)
        throw new IllegalArgumentException(s"ragged series length for id=${ids(i)}")
      // the segment means of Paa.of, summed in the same order
      var p = 0
      var s = 0
      while (s < w) {
        val size = segSizes(s)
        val end = p + size
        var sum = 0.0
        while (p < end) { sum += values(p); p += 1 }
        words(i * w + s) = ISax.symbol(sum / size, ISax.MaxBits).toByte
        s += 1
      }
      values
    }
    val idx = new IsaxIndex(chunk, config, ids, series, words, segSizes)
    var p = 0
    while (p < ids.length) { idx.insert(p); p += 1 }
    idx
  }
}
