package repro.cluster

import scala.collection.immutable
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Dpisax
import repro.core.SeriesGen.presets

class PartitioningSpec extends AnyFunSuite {

  private def loads(p: Partitioner, n: Long): Map[Int, Long] =
    (0L until n).groupBy(p.chunkOf).view.mapValues(_.size.toLong).toMap

  for (nChunks <- Seq(2, 4, 8); n <- Seq(100L, 1000L)) {
    test(s"EQUALLY-SPLIT covers all chunks near-evenly (chunks=$nChunks, n=$n)") {
      val p = Partitioning.EquallySplit(n, nChunks)
      val l = loads(p, n)
      assert(l.keySet == (0 until nChunks).toSet)
      assert(l.values.max - l.values.min <= 1)
    }

    test(s"EQUALLY-SPLIT chunks are contiguous id ranges (chunks=$nChunks, n=$n)") {
      val p = Partitioning.EquallySplit(n, nChunks)
      var last = 0
      (0L until n).foreach { id =>
        val c = p.chunkOf(id)
        assert(c >= last, "chunk ids must be non-decreasing in id order")
        last = c
      }
    }

    test(s"RandomShuffle is balanced within 20% and deterministic (chunks=$nChunks, n=$n)") {
      val p = Partitioning.RandomShuffle(nChunks)
      val l = loads(p, n)
      assert(l.keySet == (0 until nChunks).toSet)
      val avg = n.toDouble / nChunks
      l.values.foreach(v => assert(math.abs(v - avg) < avg * 0.5 + 8))
      (0L until 50L).foreach(id => assert(p.chunkOf(id) == Partitioning.RandomShuffle(nChunks).chunkOf(id)))
    }
  }

  test("RandomShuffle breaks id-contiguity") {
    val p = Partitioning.RandomShuffle(4)
    val firstHundred = (0L until 100L).map(p.chunkOf).toSet
    assert(firstHundred.size > 1)
  }

  for (nChunks <- Seq(2, 4)) {
    test(s"DENSITY-AWARE covers every id, balanced within tolerance (chunks=$nChunks)") {
      val spec = presets.seismic(800)
      val p = Partitioning.densityAware(spec, nChunks, w = 8, lambda = 8)
      val l = loads(p, spec.n.toLong)
      assert(l.values.sum == spec.n)
      assert(l.keySet.subsetOf((0 until nChunks).toSet))
      val avg = spec.n.toDouble / nChunks
      l.values.foreach(v => assert(math.abs(v - avg) <= avg * 0.35 + 16, s"loads=$l"))
    }

    test(s"DENSITY-AWARE spreads each dense cluster across chunks (chunks=$nChunks)") {
      val spec = presets.astro(800) // 80% clustered: heavy buffers exist
      val p = Partitioning.densityAware(spec, nChunks, w = 8, lambda = 8)
      // the largest cluster's members must not all land on one chunk
      val big = spec.clusterSizes.indices.maxBy(spec.clusterSizes)
      val ids = (spec.clusterStarts(big).toLong until
                 (spec.clusterStarts(big) + spec.clusterSizes(big)).toLong)
      val perChunk = ids.groupBy(p.chunkOf).view.mapValues(_.size).toMap
      assert(perChunk.size > 1, s"cluster $big entirely on one chunk")
      assert(perChunk.values.max < ids.size, "no chunk may own the whole dense cluster")
    }
  }

  test("DENSITY-AWARE beats EQUALLY-SPLIT at spreading the densest cluster") {
    val spec = presets.astro(600)
    val nChunks = 4
    val da = Partitioning.densityAware(spec, nChunks, w = 8, lambda = 8)
    val eq = Partitioning.EquallySplit(spec.n.toLong, nChunks)
    val big = spec.clusterSizes.indices.maxBy(spec.clusterSizes)
    val ids = (spec.clusterStarts(big).toLong until
               (spec.clusterStarts(big) + spec.clusterSizes(big)).toLong)
    def maxShare(p: Partitioner): Double =
      ids.groupBy(p.chunkOf).values.map(_.size).max.toDouble / ids.size
    assert(maxShare(da) < maxShare(eq))
  }

  test("Table partitioner answers from its array, fails outside it") {
    val t = Partitioning.Table("X", 2, immutable.ArraySeq(0, 1, 0))
    assert((0L until 3L).map(t.chunkOf) == Seq(0, 1, 0))
    for (id <- Seq(-1L, 3L)) {
      val e = intercept[IllegalArgumentException](t.chunkOf(id))
      assert(e.getMessage == s"X assigns no chunk to series id $id")
    }
    assert(t.name == "X")
  }

  test("members puts every id in its one chunk, ascending, and gives a chunk that owns none no ids") {
    val t = Partitioning.Table("X", 4, immutable.ArraySeq(2, 0, 2, 0, 3))
    assert(Partitioning.members(t, 5).map(_.toSeq).toSeq == Seq(Seq(1L, 3L), Seq(), Seq(0L, 2L), Seq(4L)))
    for (p <- Seq[Partitioner](Partitioning.RandomShuffle(4), Partitioning.EquallySplit(1000, 4))) {
      val members = Partitioning.members(p, 1000)
      assert(members.length == 4)
      members.foreach(ids => assert(ids.toSeq == ids.sorted.toSeq, p.name))
      assert(members.flatten.sorted.toSeq == (0L until 1000L), p.name)
      members.indices.foreach(c => assert(members(c).forall(p.chunkOf(_) == c), p.name))
    }
  }

  test("members fails on a chunk outside 0 until nChunks, naming the series id") {
    for (bad <- Seq(-1, 2)) {
      val t = Partitioning.Table("X", 2, immutable.ArraySeq(0, 1, bad, 0))
      val e = intercept[IllegalArgumentException](Partitioning.members(t, 4))
      assert(e.getMessage.contains(s"chunk $bad of 2 for series id 2"), e.getMessage)
    }
  }

  test("partitioner names are stable") {
    assert(Partitioning.EquallySplit(10, 2).name == "EQUALLY-SPLIT")
    assert(Partitioning.RandomShuffle(2).name == "EQUALLY-SPLIT-RS")
    val spec = presets.seismic(100)
    assert(Partitioning.densityAware(spec, 2, 8, 4).name == "DENSITY-AWARE")
  }

  test("partitioners built twice from the same inputs are equal; ones that assign differently are not") {
    val spec = presets.seismic(400)
    val n = spec.n.toLong
    def build(): Seq[Partitioner] = Seq(Partitioning.EquallySplit(n, 4), Partitioning.RandomShuffle(4),
      Partitioning.densityAware(spec, 4, w = 8, lambda = 8), Dpisax.partition(spec, 4, w = 8))
    val (a, b) = (build(), build())
    a.zip(b).foreach { case (x, y) => assert(x == y && x.hashCode == y.hashCode, x.name) }
    val differing = a.combinations(2).toSeq :+ Seq(Partitioning.RandomShuffle(2), Partitioning.EquallySplit(n, 2))
    for (Seq(x, y) <- differing) {
      assert((0L until n).exists(id => x.chunkOf(id) != y.chunkOf(id)), s"${x.name} and ${y.name} assign alike")
      assert(x != y, s"${x.name} == ${y.name}")
    }
  }
}
