package repro.core

import org.scalatest.funsuite.AnyFunSuite

class DistancesSpec extends AnyFunSuite {

  private def rand(seed: Long, l: Int): Array[Double] = {
    val st = new Rng.Stream(seed)
    Array.fill(l)(st.nextGaussian())
  }

  test("ed matches the textbook formula") {
    val a = Array(0.0, 3.0); val b = Array(4.0, 0.0)
    assert(math.abs(Distances.ed(a, b) - 5.0) < 1e-12)
  }

  test("ed of identical series is zero; ed is symmetric") {
    val a = rand(4, 100)
    assert(Distances.ed(a, a) == 0.0)
    val b = rand(5, 100)
    assert(math.abs(Distances.ed(a, b) - Distances.ed(b, a)) < 1e-12)
  }

  for (trial <- 0 until 15) {
    test(s"early-abandon ED equals plain ED when the bound is loose (trial=$trial)") {
      val a = rand(trial * 17L + 1, 64); val b = rand(trial * 19L + 2, 64)
      val c = new Cost
      val d = Distances.edEarlyAbandon(a, b, Double.PositiveInfinity, c)
      assert(math.abs(d - Distances.ed(a, b)) < 1e-9)
      assert(c.ops == 64)
    }

    test(s"early-abandon ED abandons under a tight bound and charges fewer ops (trial=$trial)") {
      val a = rand(trial * 23L + 3, 256); val b = rand(trial * 29L + 4, 256)
      val real = Distances.ed(a, b)
      val c = new Cost
      val d = Distances.edEarlyAbandon(a, b, real / 4, c)
      assert(d.isPosInfinity)
      assert(c.ops < 256)
    }
  }

  /** Runs the paired kernel and checks each lane against [[Distances.edEarlyAbandon]]
    * alone: the same distance bits and the same points. Returns the lanes.
    */
  private def pairMatchesSingles(q: Array[Double], a: Array[Double], b: Array[Double],
                                 bound: Double): Array[Double] = {
    val out = Array.fill(4)(Double.NaN)
    Distances.edEarlyAbandonPair(q, a, b, bound, out)
    for ((s, lane) <- Seq(a -> 0, b -> 2)) {
      val c = new Cost
      val d = Distances.edEarlyAbandon(q, s, bound, c)
      assert(java.lang.Double.doubleToRawLongBits(out(lane)) == java.lang.Double.doubleToRawLongBits(d),
             s"lane ${lane / 2}: ${out(lane)} vs $d (bound $bound, length ${q.length})")
      assert(out(lane + 1) == c.ops.toDouble, s"lane ${lane / 2}: ${out(lane + 1)} points vs ${c.ops}")
    }
    out
  }

  test("paired ED equals two single runs under bounds of +inf and 0") {
    for (len <- Seq(1, 2, 7, 64)) {
      val q = rand(50 + len, len); val a = rand(51 + len, len); val b = rand(52 + len, len)
      val loose = pairMatchesSingles(q, a, b, Double.PositiveInfinity)
      assert(loose(1) == len && loose(3) == len)
      val zero = pairMatchesSingles(q, a, b, 0.0)
      assert(zero(0).isPosInfinity && zero(1) == 1 && zero(2).isPosInfinity && zero(3) == 1)
    }
    // a lane equal to the query never exceeds a zero bound
    val q = rand(60, 5)
    val same = pairMatchesSingles(q, q.clone(), rand(61, 5), 0.0)
    assert(same(0) == 0.0 && same(1) == 5 && same(2).isPosInfinity)
  }

  test("paired ED keeps a lane whose distance equals the bound (the abandon test is strict)") {
    val q = Array(0.0, 0.0); val a = Array(3.0, 4.0); val b = Array(4.0, 3.0)
    val out = pairMatchesSingles(q, a, b, 5.0)
    assert(out.toSeq == Seq(5.0, 2.0, 5.0, 2.0))
    // the true distance of a random lane as the bound
    val r = rand(62, 33); val s = rand(63, 33); val t = rand(64, 33)
    pairMatchesSingles(r, s, t, Distances.ed(r, s))
    pairMatchesSingles(r, s, t, Distances.ed(r, t))
  }

  test("paired ED abandons A only, B only, or both at the same point") {
    val q = Array.fill(4)(0.0)
    val far = Array(2.0, 2.0, 2.0, 2.0)  // squared prefix sums 4, 8, 12, 16
    val near = Array(1.0, 0.0, 0.0, 0.0) // 1 throughout
    val aOnly = pairMatchesSingles(q, far, near, 3.0)
    assert(aOnly.toSeq == Seq(Double.PositiveInfinity, 3.0, 1.0, 4.0))
    val bOnly = pairMatchesSingles(q, near, far, 3.0)
    assert(bOnly.toSeq == Seq(1.0, 4.0, Double.PositiveInfinity, 3.0))
    val both = pairMatchesSingles(q, far, Array(0.0, 0.0, 4.0, 0.0), 3.0)
    assert(both.toSeq == Seq(Double.PositiveInfinity, 3.0, Double.PositiveInfinity, 3.0))
  }

  test("paired ED abandons at the first and at the last point") {
    val q = Array.fill(4)(0.0)
    val first = pairMatchesSingles(q, Array(5.0, 0.0, 0.0, 0.0), Array(1.0, 1.0, 1.0, 2.0), 2.5)
    assert(first.toSeq == Seq(Double.PositiveInfinity, 1.0, Double.PositiveInfinity, 4.0))
    val last = pairMatchesSingles(q, Array(1.0, 1.0, 1.0, 2.0), Array(0.0, 0.0, 0.0, 1.0), 2.5)
    assert(last.toSeq == Seq(Double.PositiveInfinity, 4.0, 1.0, 4.0))
  }

  test("paired ED equals two single runs over generated pairs and bounds") {
    val st = new Rng.Stream(65)
    for (trial <- 0 until 400) {
      val len = 1 + (st.nextGaussian().abs * 40).toInt
      val q = Array.fill(len)(st.nextGaussian())
      val a = Array.fill(len)(st.nextGaussian())
      // every fourth B is A with one point moved, so both lanes run close
      val b = if (trial % 4 == 0) { val c = a.clone(); c(len / 2) += st.nextGaussian(); c }
              else Array.fill(len)(st.nextGaussian())
      val da = Distances.ed(q, a); val db = Distances.ed(q, b)
      for (bound <- Seq(Double.PositiveInfinity, 0.0, da, db, da * 0.5, db * 0.9, (da + db) / 2, math.nextUp(da)))
        pairMatchesSingles(q, a, b, bound)
    }
  }

  test("envelope brackets the series and widens with the radius") {
    val q = rand(7, 100)
    var prevWidth = -1.0
    for (r <- Seq(0, 2, 5, 10)) {
      val (up, lo) = Distances.envelope(q, r)
      q.indices.foreach { i => assert(lo(i) <= q(i) && q(i) <= up(i)) }
      val width = q.indices.map(i => up(i) - lo(i)).sum
      assert(width >= prevWidth)
      prevWidth = width
    }
  }

  test("envelope with r = 0 is the series itself") {
    val q = rand(8, 50)
    val (up, lo) = Distances.envelope(q, 0)
    q.indices.foreach { i => assert(up(i) == q(i) && lo(i) == q(i)) }
  }

  for (trial <- 0 until 10; r <- Seq(2, 5)) {
    test(s"LB_Keogh is a lower bound of DTW (trial=$trial, r=$r)") {
      val q = rand(trial * 31L + 5, 64); val s = rand(trial * 37L + 6, 64)
      val (up, lo) = Distances.envelope(q, r)
      val lb  = Distances.lbKeogh(s, up, lo, Double.PositiveInfinity, new Cost)
      val dtw = Distances.dtwBand(q, s, r, Double.PositiveInfinity, new Cost)
      assert(lb <= dtw + 1e-9)
    }
  }

  for (trial <- 0 until 10) {
    test(s"DTW with radius 0 equals ED; wider bands never increase DTW (trial=$trial)") {
      val a = rand(trial * 41L + 7, 48); val b = rand(trial * 43L + 8, 48)
      val d0 = Distances.dtwBand(a, b, 0, Double.PositiveInfinity, new Cost)
      assert(math.abs(d0 - Distances.ed(a, b)) < 1e-9)
      var prev = d0
      for (r <- Seq(1, 2, 4, 8, 47)) {
        val d = Distances.dtwBand(a, b, r, Double.PositiveInfinity, new Cost)
        assert(d <= prev + 1e-9)
        prev = d
      }
    }
  }

  test("DTW early abandons under a tight bound") {
    val a = rand(9, 128); val b = rand(10, 128).map(_ + 50.0)
    val c = new Cost
    assert(Distances.dtwBand(a, b, 5, 0.001, c).isPosInfinity)
    assert(c.ops < 128L * 11) // stopped before filling the whole band
  }

  test("DTW of identical series is zero") {
    val a = rand(11, 64)
    assert(Distances.dtwBand(a, a, 3, Double.PositiveInfinity, new Cost) == 0.0)
  }

  test("DTW is symmetric with a symmetric band") {
    val a = rand(12, 40); val b = rand(13, 40)
    val d1 = Distances.dtwBand(a, b, 4, Double.PositiveInfinity, new Cost)
    val d2 = Distances.dtwBand(b, a, 4, Double.PositiveInfinity, new Cost)
    assert(math.abs(d1 - d2) < 1e-9)
  }

  test("zNormalize yields zero mean, unit variance") {
    val v = rand(14, 200).map(_ * 3 + 7)
    val z = Distances.zNormalize(v)
    val mean = z.sum / z.length
    val varr = z.map(x => (x - mean) * (x - mean)).sum / z.length
    assert(math.abs(mean) < 1e-9)
    assert(math.abs(varr - 1.0) < 1e-9)
  }

  test("zNormalize maps constant series to zeros") {
    assert(Distances.zNormalize(Array.fill(10)(4.2)).forall(_ == 0.0))
  }
}
