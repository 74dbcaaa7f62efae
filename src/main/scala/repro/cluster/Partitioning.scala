package repro.cluster

import scala.collection.{immutable, mutable}
import repro.core.{Blocks, Gray, ISax, Paa, Rng}
import repro.core.SeriesGen.DatasetSpec

/** Assignment of series ids to chunks (one chunk per replication group), which the pipeline reads
  * only through [[Partitioning.members]]. A value: two that assign alike are `==` (the ones below
  * are case classes), so one keys a build. */
trait Partitioner {
  def name: String
  def nChunks: Int
  def chunkOf(id: Long): Int
}

object Partitioning {

  /** Each chunk's ids among `0 until n`, ascending, from one pass: the one place the pipeline
    * evaluates a partitioner. A chunk outside `0 until nChunks` fails, naming the series id. */
  def members(chunking: Partitioner, n: Long): Array[Array[Long]] = {
    val owned = Array.fill(chunking.nChunks)(new mutable.ArrayBuilder.ofLong)
    var id = 0L
    while (id < n) {
      val chunk = chunking.chunkOf(id)
      require(chunk >= 0 && chunk < chunking.nChunks, s"chunk $chunk of ${chunking.nChunks} for series id $id")
      owned(chunk) += id
      id += 1
    }
    owned.map(_.result())
  }

  /** EQUALLY-SPLIT: contiguous blocks of the collection's raw order.
    * With cluster-contiguous generators this co-locates similar series —
    * the pathology DENSITY-AWARE / shuffling addresses.
    */
  final case class EquallySplit(n: Long, override val nChunks: Int) extends Partitioner {
    def name = "EQUALLY-SPLIT"
    def chunkOf(id: Long): Int = math.min(nChunks - 1, (id * nChunks / n).toInt)
  }

  /** EQUALLY-SPLIT + random shuffling (RS, §3.4): a pseudo-random but
    * deterministic balanced assignment.
    */
  final case class RandomShuffle(override val nChunks: Int) extends Partitioner {
    def name = "EQUALLY-SPLIT-RS"
    def chunkOf(id: Long): Int = {
      val h = Rng.mix(Rng.key(99L, id)) // 99: the shuffle's fixed seed
      (((h % nChunks) + nChunks) % nChunks).toInt
    }
  }

  /** Explicit partitioner (result of DENSITY-AWARE / DPiSAX): series id `i`
    * goes to chunk `chunks(i)`; an id outside `chunks` has none.
    */
  final case class Table(name: String, override val nChunks: Int,
                         chunks: immutable.ArraySeq[Int]) extends Partitioner {
    def chunkOf(id: Long): Int =
      if (id >= 0 && id < chunks.length) chunks(id.toInt)
      else throw new IllegalArgumentException(s"$name assigns no chunk to series id $id")
  }

  /** DENSITY-AWARE partitioning (§3.4.1, Figs. 8–9).
    *
    * 1. compute every series' iSAX summary (in parallel [[Blocks]]) and
    *    group ids, in id order, into summarization buffers (first-bit root
    *    words);
    * 2. order the buffers by Gray-code rank of their word;
    * 3. split the λ largest buffers' members round-robin across chunks
    *    (dense buffers must not land on one node);
    * 4. assign the remaining buffers, in Gray order, round-robin to the
    *    chunk with the smallest load;
    * 5. while unbalanced, split the largest still-intact buffer of the
    *    most loaded chunk round-robin.
    */
  def densityAware(spec: DatasetSpec, nChunks: Int, w: Int, lambda: Int): Table = {
    val toleranceFrac = 0.05 // allowed chunk load spread, as a share of n / nChunks
    val keys = Blocks.tabulate(spec.n) { id =>
      ISax.rootKey(ISax.word(Paa.of(repro.core.SeriesGen.series(spec, id.toLong), w)))
    }
    val buffers = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    keys.indices.foreach(id => buffers.getOrElseUpdate(keys(id), mutable.ArrayBuffer.empty) += id)
    val assign = Array.fill(spec.n)(-1) // an id left at -1 fails `members`
    val load = new Array[Long](nChunks)
    var rr = 0
    def splitBuffer(ids: Iterable[Int]): Unit =
      ids.foreach { sid => assign(sid) = rr % nChunks; load(rr % nChunks) += 1; rr += 1 }

    val byGray = buffers.toSeq.sortBy { case (key, _) => Gray.rank(key.toLong & 0xffffffffL) }
    val bySizeDesc = byGray.sortBy { case (_, ids) => -ids.length }
    val big = bySizeDesc.take(lambda).map(_._1).toSet
    // stage 3: λ largest buffers are split across all chunks
    bySizeDesc.take(lambda).foreach { case (_, ids) => splitBuffer(ids) }
    // stage 4: remaining buffers whole, Gray order, least-loaded chunk
    val intact = mutable.ArrayBuffer.empty[(Int, mutable.ArrayBuffer[Int])] // (chunk, ids)
    byGray.filterNot { case (key, _) => big(key) }.foreach { case (_, ids) =>
      val c = load.indices.minBy(load)
      ids.foreach(sid => assign(sid) = c)
      load(c) += ids.length
      intact += ((c, ids))
    }
    // stage 5: rebalance by splitting the largest intact buffer of the
    // largest chunk (bounded loop: each iteration consumes one buffer)
    val tol = math.max(1L, (spec.n.toLong * toleranceFrac / nChunks).toLong)
    var guard = intact.length
    while (guard > 0 && load.max - load.min > tol) {
      val hot = load.indices.maxBy(load)
      val candidates = intact.zipWithIndex.filter(_._1._1 == hot)
      if (candidates.isEmpty) guard = 0
      else {
        val ((_, ids), at) = candidates.maxBy(_._1._2.length)
        intact.remove(at)
        load(hot) -= ids.length
        splitBuffer(ids)
        guard -= 1
      }
    }
    Table("DENSITY-AWARE", nChunks, immutable.ArraySeq.unsafeWrapArray(assign))
  }
}
