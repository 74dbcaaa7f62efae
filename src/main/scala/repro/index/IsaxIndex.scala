package repro.index

import scala.collection.{immutable, mutable}
import repro.core.{Blocks, Cost, ISax, Paa}

/** Index build configuration.
  *
  * @param w            PAA / iSAX segments
  * @param leafCapacity max entries per leaf before a cardinality-promotion split
  */
final case class IndexConfig(w: Int = 8, leafCapacity: Int = 64) {
  require(w >= 2 && w <= 16, s"w out of range: $w")
  require(leafCapacity >= 2, s"leafCapacity too small: $leafCapacity")
}

/** One indexed series: raw-data pointer plus its full-cardinality word.
  * (No PAA is stored — entry-level lower bounds come from the word, so the
  * index payload stays id + pointer + w symbol bytes, as in MESSI.)
  */
final class Entry(val id: Long, val values: Array[Double], val sax: Array[Int])

/** iSAX tree node. A node is a leaf while `splitSeg < 0`; splitting
  * promotes one segment's cardinality by one bit and redistributes the
  * entries into the two children (iSAX 2.0-style, round-robin over the
  * segments with the fewest bits).
  */
final class TreeNode(val word: Array[Int], val bits: Array[Int]) {
  var entries: mutable.ArrayBuffer[Entry] = mutable.ArrayBuffer.empty
  var splitSeg: Int = -1
  var child0: TreeNode = _
  var child1: TreeNode = _
  def isLeaf: Boolean = splitSeg < 0
}

/** Per-chunk index build statistics (feeds Fig. 14 / Fig. 17 benches). */
final case class BuildStats(nSeries: Long, bufferOps: Long, treeOps: Long,
                            indexBytes: Long, nLeaves: Int, nInner: Int, nRoots: Int)

/** In-memory iSAX index over one data chunk (the per-node index of §3.2.1).
  *
  * Construction mirrors the single-node parallel indexes of §2: compute
  * every series' summary in parallel blocks (the "summarization buffer"
  * pass), then insert the entries one by one, in chunk order, each into the
  * root subtree of its first-bit word. `rootsSorted` exposes the subtrees in
  * root-word order, sorted once; the searcher groups consecutive subtrees
  * into RS-batches.
  */
final class IsaxIndex private (val config: IndexConfig, val length: Int) {
  val segSizes: Array[Int] = Paa.segmentSizes(length, config.w)
  private val rootMap = mutable.HashMap.empty[Int, TreeNode]
  private var _nSeries = 0L
  private var _treeOps = 0L

  /** Root subtrees ordered by packed first-bit word (stable RS-batch ids).
    * Sorted once, on first use after the build: sorting at the end of
    * `build` slowed the build's JIT warm-up under `-Xbatch`.
    */
  lazy val rootsSorted: IndexedSeq[(Int, TreeNode)] =
    immutable.ArraySeq.unsafeWrapArray(rootMap.toArray.sortBy(_._1))

  private lazy val rootKeys: Array[Int] = rootsSorted.map(_._1).toArray

  /** The subtrees of `rootsSorted`, for the search loops; callers must not write. */
  private[index] lazy val roots: Array[TreeNode] = rootsSorted.map(_._2).toArray

  /** Position in `roots` of the subtree with root word `key`, or -1. */
  private[index] def rootIndex(key: Int): Int = {
    val i = java.util.Arrays.binarySearch(rootKeys, key)
    if (i >= 0) i else -1
  }

  /** Summarization-buffer histogram: packed root word -> series count. */
  def bufferCounts: Map[Int, Int] = rootMap.view.mapValues(countEntries).toMap

  def nSeries: Long = _nSeries

  private def countEntries(n: TreeNode): Int =
    if (n.isLeaf) n.entries.length else countEntries(n.child0) + countEntries(n.child1)

  private def insert(e: Entry): Unit = {
    val key = ISax.rootKey(e.sax)
    val root = rootMap.getOrElseUpdate(key, {
      val word = e.sax.map(_ >>> (ISax.MaxBits - 1))
      new TreeNode(word, Array.fill(config.w)(1))
    })
    var node = root
    _treeOps += 1
    while (!node.isLeaf) {
      val b   = node.bits(node.splitSeg) // child bit depth already = b after split
      val bit = (e.sax(node.splitSeg) >>> (ISax.MaxBits - b - 1)) & 1
      node = if (bit == 0) node.child0 else node.child1
      _treeOps += 1
    }
    node.entries += e
    if (node.entries.length > config.leafCapacity) split(node)
  }

  /** Split `node` by promoting the segment with the fewest bits (lowest
    * index on ties); gives up (oversized leaf) when every segment is at
    * max cardinality. Children that still overflow are split recursively.
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
    val moved = node.entries
    node.entries = null
    node.splitSeg = seg
    node.child0 = c0; node.child1 = c1
    moved.foreach { e =>
      val bit = (e.sax(seg) >>> (ISax.MaxBits - nb)) & 1
      (if (bit == 0) c0 else c1).entries += e
      _treeOps += 1
    }
    if (c0.entries.length > config.leafCapacity) split(c0)
    if (c1.entries.length > config.leafCapacity) split(c1)
  }

  def buildStats: BuildStats = {
    var leaves = 0; var inner = 0; var entryCount = 0L
    def walk(n: TreeNode): Unit =
      if (n.isLeaf) { leaves += 1; entryCount += n.entries.length }
      else { inner += 1; walk(n.child0); walk(n.child1) }
    rootMap.values.foreach(walk)
    // Index payload: per entry id(8) + data pointer(8) + packed word (w
    // bytes); per node word/bits/pointers ~ 64B. Raw data is NOT index.
    val bytes = entryCount * (16L + config.w) + (leaves + inner) * 64L
    BuildStats(_nSeries, bufferOps = _nSeries * length, treeOps = _treeOps,
               indexBytes = bytes, nLeaves = leaves, nInner = inner, nRoots = rootMap.size)
  }
}

object IsaxIndex {

  /** Summarize + index a chunk given as `(id, series)` pairs, inserted in
    * iteration order; see the id-array form.
    */
  def build(seriesIt: Iterator[(Long, Array[Double])], config: IndexConfig,
            cost: Cost = new Cost): IsaxIndex = {
    val (ids, values) = seriesIt.toArray.unzip
    build(ids, values(_), config, cost)
  }

  /** Summarize + index the chunk whose position `i` holds series `ids(i)`,
    * `seriesAt(i)`. Summaries (series, PAA, full-cardinality word) are
    * computed in parallel [[Blocks]] on the common pool, so `seriesAt` must
    * be a pure function of `i`; the entries then enter the tree one by one
    * in position order, so every leaf, split and op count is that of a
    * sequential build. `cost` is charged one op per point for summarization
    * and one per tree-node visit during insertion.
    */
  def build(ids: Array[Long], seriesAt: Int => Array[Double], config: IndexConfig,
            cost: Cost): IsaxIndex = {
    require(ids.nonEmpty, "cannot build an index over an empty chunk")
    val entries = Blocks.tabulate(ids.length) { i =>
      val values = seriesAt(i)
      new Entry(ids(i), values, ISax.word(Paa.of(values, config.w)))
    }
    val idx = new IsaxIndex(config, entries(0).values.length)
    entries.foreach { e =>
      require(e.values.length == idx.length, s"ragged series length for id=${e.id}")
      idx.insert(e)
    }
    idx._nSeries = entries.length
    cost.add(idx._nSeries * idx.length + idx._treeOps)
    idx
  }
}
