package repro.baselines

import scala.collection.{immutable, mutable}
import repro.cluster.Partitioning
import repro.core.{Blocks, ISax, Paa, Rng}
import repro.core.SeriesGen.DatasetSpec

/** DPiSAX data partitioning (Yagoubi et al., TKDE 2020) — the competitor's
  * distribution strategy (§2.1, evaluated in Fig. 17d).
  *
  * DPiSAX samples the collection, computes iSAX words of the sample, and
  * splits the *iSAX space* into regions of approximately equal sample mass;
  * each node then stores (and locally indexes) one region's series. Because
  * regions are contiguous in iSAX space, similar series land on the same
  * node — precisely the density concentration Odyssey's DENSITY-AWARE
  * partitioning is designed to avoid.
  *
  * Implementation: start from one bucket per first-bit root word occupied
  * by the sample; repeatedly split the heaviest bucket by promoting the
  * cardinality of its least-refined segment until there are at least
  * `nChunks` buckets; then greedily bin-pack buckets (largest first) onto
  * the least-loaded chunk. Splits keep the regions disjoint, so a series
  * matches one bucket, or none if the sample never saw its root word, and
  * is then hashed by that word. Words and chunks are computed in
  * parallel [[repro.core.Blocks]], by sample or id position, and consumed
  * in that order.
  */
object Dpisax {

  /** A region of iSAX space: per-segment (symbol, bits) prefix + sample load. */
  private final class Bucket(val word: Array[Int], val bits: Array[Int], var size: Int) {
    def matches(sax: Array[Int]): Boolean = {
      var i = 0
      while (i < word.length) {
        if (bits(i) > 0 && (sax(i) >>> (ISax.MaxBits - bits(i))) != word(i)) return false
        i += 1
      }
      true
    }
  }

  def partition(spec: DatasetSpec, nChunks: Int, w: Int): Partitioning.Table = {
    require(nChunks >= 1)
    val sampleFrac = 0.05 // share of the collection sampled
    val seed = 41L        // sample stream seed
    val rng = new Rng.Stream(Rng.key(seed, spec.n.toLong))
    val sampleN = math.max(nChunks * 8, (spec.n * sampleFrac).toInt)
    val sample = Array.fill(sampleN)(rng.nextInt(spec.n).toLong)
    def saxOf(id: Long): Array[Int] =
      ISax.word(Paa.of(repro.core.SeriesGen.series(spec, id), w))

    // seed buckets: occupied first-bit words
    val sampleSax = Blocks.tabulate(sampleN)(i => saxOf(sample(i)))
    val seedMap = mutable.HashMap.empty[Int, Bucket]
    sampleSax.foreach { sax =>
      val word = sax.map(_ >>> (ISax.MaxBits - 1))
      val key  = ISax.rootKey(sax)
      val b = seedMap.getOrElseUpdate(key, new Bucket(word, Array.fill(w)(1), 0))
      b.size += 1
    }
    val buckets = mutable.ArrayBuffer.empty[Bucket] ++ seedMap.values

    // split heaviest bucket until we can fill every chunk
    var guard = 64 * nChunks
    while (buckets.length < nChunks && guard > 0) {
      guard -= 1
      val heavy = buckets.maxBy(_.size)
      val seg = heavy.bits.indices
        .filter(heavy.bits(_) < ISax.MaxBits)
        .sortBy(heavy.bits(_)).headOption.getOrElse(-1)
      if (seg < 0) guard = 0
      else {
        buckets -= heavy
        val nb = heavy.bits(seg) + 1
        val mk = (bit: Int) => {
          val w2 = heavy.word.clone(); val b2 = heavy.bits.clone()
          w2(seg) = heavy.word(seg) * 2 + bit; b2(seg) = nb
          new Bucket(w2, b2, 0)
        }
        val c0 = mk(0); val c1 = mk(1)
        sampleSax.foreach { sax =>
          if (c0.matches(sax)) c0.size += 1 else if (c1.matches(sax)) c1.size += 1
        }
        buckets += c0 += c1
      }
    }

    // bin-pack buckets to chunks, largest first onto least loaded
    val load = new Array[Long](nChunks)
    val chunkOfBucket = new Array[Int](buckets.length)
    buckets.indices.sortBy(i => -buckets(i).size).foreach { i =>
      val c = load.indices.minBy(load)
      chunkOfBucket(i) = c
      load(c) += buckets(i).size
    }
    def chunkOfSax(sax: Array[Int]): Int = {
      val i = buckets.indexWhere(_.matches(sax))
      if (i >= 0) chunkOfBucket(i)
      else (ISax.rootKey(sax) % nChunks + nChunks) % nChunks // root word unseen in the sample
    }
    val chunks = Blocks.tabulate(spec.n)(id => chunkOfSax(saxOf(id.toLong)))
    Partitioning.Table("DPISAX", nChunks, immutable.ArraySeq.unsafeWrapArray(chunks))
  }
}
