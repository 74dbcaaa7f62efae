package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SeriesGen.presets

class SeriesGenSpec extends AnyFunSuite {

  for (name <- presets.all) {
    val spec = presets.byName(name, 500)

    test(s"$name: series are deterministic in (spec, id)") {
      (0L until 20L).foreach { id =>
        assert(SeriesGen.series(spec, id).sameElements(SeriesGen.series(spec, id)))
      }
    }

    test(s"$name: series are z-normalized at the declared length") {
      (0L until 10L).foreach { id =>
        val s = SeriesGen.series(spec, id)
        assert(s.length == spec.length)
        val mean = s.sum / s.length
        assert(math.abs(mean) < 1e-9)
      }
    }

    test(s"$name: 200 series, clustered and not, equal the SplittableRandom reference bit for bit") {
      val ids = (0 until 200).map(i => i.toLong * spec.n / 200)
      assert(ids.exists(spec.clusterOf(_) < 0) && (spec.nClustered == 0 || ids.exists(spec.clusterOf(_) >= 0)))
      ids.foreach { id =>
        assert(SeriesGen.series(spec, id).sameElements(SeriesGenSpec.series(spec, id)), s"id $id")
      }
    }

    test(s"$name: a serialized copy of the spec generates the same series") {
      val ids = Seq(0L, spec.nClustered / 2L, spec.n - 1L)
      val before = ids.map(SeriesGen.series(spec, _)) // the original's centers are computed
      val bytes = new java.io.ByteArrayOutputStream
      val out = new java.io.ObjectOutputStream(bytes)
      out.writeObject(spec)
      out.close()
      val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
        .readObject().asInstanceOf[SeriesGen.DatasetSpec]
      assert(copy == spec && !(copy eq spec))
      assert(ids.exists(copy.clusterOf(_) < 0) && (spec.nClustered == 0 || ids.exists(copy.clusterOf(_) >= 0)))
      ids.zip(before).foreach { case (id, v) => assert(SeriesGen.series(copy, id).sameElements(v), s"id $id") }
    }

    test(s"$name: queries are deterministic and normalized") {
      (0 until 5).foreach { q =>
        val a = SeriesGen.query(spec, q)
        assert(a.sameElements(SeriesGen.query(spec, q)))
        assert(a.length == spec.length)
      }
    }
  }

  test("cluster blocks tile [0, nClustered) exactly") {
    val spec = presets.seismic(1000)
    assert(spec.clusterSizes.sum == spec.nClustered)
    assert(spec.clusterStarts.head == 0)
    // clusterOf is consistent with the block boundaries
    (0L until spec.n.toLong).foreach { id =>
      val c = spec.clusterOf(id)
      if (id < spec.nClustered) {
        assert(c >= 0 && c < spec.nClusters)
        assert(spec.clusterStarts(c) <= id)
        assert(id < spec.clusterStarts(c) + spec.clusterSizes(c))
      } else assert(c == -1)
    }
  }

  test("cluster members are near their center; unclustered walks are not") {
    val spec = presets.astro(600)
    val tight = spec.clusterSizes.length - 1 // last cluster has the smallest sigma
    val c = spec.centers(tight)
    val member = SeriesGen.series(spec, spec.clusterStarts(tight).toLong)
    val walk = SeriesGen.series(spec, (spec.n - 1).toLong)
    assert(Distances.ed(member, c) < Distances.ed(walk, c))
  }

  test("cluster sigma descends with cluster size (big clusters are loose)") {
    val spec = presets.seismic(1000)
    assert(SeriesGen.clusterSigma(spec, 0) > SeriesGen.clusterSigma(spec, spec.nClusters - 1))
    assert(spec.clusterSizes.head >= spec.clusterSizes.last)
  }

  test("different ids give different series") {
    val spec = presets.random(100)
    val a = SeriesGen.series(spec, 0)
    val b = SeriesGen.series(spec, 1)
    assert(Distances.ed(a, b) > 0.1)
  }

  test("training queries differ from evaluation queries") {
    val spec = presets.seismic(300)
    val ev = SeriesGen.queries(spec, 3)
    val tr = SeriesGen.trainingQueries(spec, 3)
    assert(Distances.ed(ev(0), tr(0)) > 1e-6)
  }

  test("easyFrac=1 queries sit closer to the collection than easyFrac=0") {
    val spec = presets.seismic(400)
    def minDist(q: Array[Double]): Double =
      (0L until spec.n.toLong).map(id => Distances.ed(q, SeriesGen.series(spec, id))).min
    val easy = (0 until 5).map(i => minDist(SeriesGen.query(spec, i, easyFrac = 1.0))).sum
    val hard = (0 until 5).map(i => minDist(SeriesGen.query(spec, i, easyFrac = 0.0))).sum
    assert(easy < hard)
  }

  test("byName rejects unknown datasets") {
    intercept[IllegalArgumentException](presets.byName("nope", 10))
  }
}

object SeriesGenSpec {

  /** A z-normalized walk of `SplittableRandom.nextGaussian` steps, drawn one at a time. */
  private def walk(seed: Long, length: Int): Array[Double] = {
    val rng = new java.util.SplittableRandom(seed)
    val v = new Array[Double](length)
    var acc = 0.0; var sum = 0.0
    var i = 0
    while (i < length) { acc += rng.nextGaussian(); v(i) = acc; sum += acc; i += 1 }
    Distances.zNormalizeInPlace(v, sum)
  }

  /** `SeriesGen.series` written out: a walk, and for a cluster member its
    * center plus sigma times that walk, normalized again.
    */
  def series(spec: SeriesGen.DatasetSpec, id: Long): Array[Double] = {
    val v = walk(Rng.key(spec.seed, id), spec.length)
    val j = spec.clusterOf(id)
    if (j < 0) v
    else {
      val c = walk(Rng.key(spec.seed, 7000L + j), spec.length)
      val sigma = SeriesGen.clusterSigma(spec, j)
      var sum = 0.0
      var i = 0
      while (i < spec.length) { v(i) = c(i) + sigma * v(i); sum += v(i); i += 1 }
      Distances.zNormalizeInPlace(v, sum)
    }
  }
}
