package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rng
import repro.index.ThresholdModel.SigmoidFit

class ThresholdModelSpec extends AnyFunSuite {

  test("Nelder-Mead minimizes a shifted quadratic") {
    val f = (x: Array[Double]) => (x(0) - 3) * (x(0) - 3) + (x(1) + 2) * (x(1) + 2) + 1
    val got = NelderMead.minimize(f, Array(0.0, 0.0), iters = 500)
    assert(math.abs(got(0) - 3) < 1e-3)
    assert(math.abs(got(1) + 2) < 1e-3)
  }

  test("Nelder-Mead handles a 5-dimensional bowl") {
    val f = (x: Array[Double]) => x.map(v => (v - 1) * (v - 1)).sum
    val got = NelderMead.minimize(f, Array.fill(5)(4.0), iters = 2000)
    got.foreach(v => assert(math.abs(v - 1) < 1e-2))
  }

  test("sigmoid fit recovers a noiseless sigmoid") {
    val truth = SigmoidFit(m = 10, M = 200, b = 1.0, c = 0.8, d = 12.0)
    val pts = (0 until 60).map { i => val x = 4 + i * 0.3; (x, truth(x)) }
    val fit = ThresholdModel.fit(pts)
    pts.foreach { case (x, y) => assert(math.abs(fit(x) - y) < 0.05 * (truth.M - truth.m) + 1.0) }
  }

  test("sigmoid fit tolerates noise and stays monotone-ish") {
    val truth = SigmoidFit(5, 120, 1.0, 1.2, 8.0)
    val rng = new Rng.Stream(5)
    val pts = (0 until 80).map { i =>
      val x = 2 + i * 0.2
      (x, truth(x) + rng.nextGaussian() * 4)
    }
    val fit = ThresholdModel.fit(pts)
    assert(fit(2.0) < fit(18.0)) // rises across the range like the truth
  }

  test("sigmoid evaluation hits its asymptotes") {
    val s = SigmoidFit(1, 9, 1.0, 2.0, 0.0)
    assert(math.abs(s(-50) - 1) < 1e-6)
    assert(math.abs(s(50) - 9) < 1e-6)
    assert(math.abs(s(0.0) - 5.0) < 1e-9) // midpoint with b = 1
  }

  test("thresholdFor divides by the factor and floors at 2") {
    val s = SigmoidFit(0, 160, 1.0, 5.0, 0.0)
    assert(ThresholdModel.thresholdFor(s, 10.0, 16.0) == 10) // 160/16
    assert(ThresholdModel.thresholdFor(s, 10.0, 1000.0) == 2)
    // larger division factors never raise TH
    val ths = Seq(1.0, 2.0, 4.0, 8.0, 16.0).map(ThresholdModel.thresholdFor(s, 10.0, _))
    assert(ths.sliding(2).forall(p => p.length < 2 || p(0) >= p(1)))
  }

  test("medianPqSize of a run matches a hand computation") {
    val run = QueryRun(List((1.0, 1L)), 1.0, 1L, Array(0L),
      Array(PqStat(0, 0.1, 4, 10), PqStat(0, 0.2, 8, 10), PqStat(1, 0.3, 6, 10)),
      30, 3, 1)
    assert(ThresholdModel.medianPqSize(run.pqStats.toSeq) == 6.0)
    assert(ThresholdModel.medianPqSize(run.pqStats.toSeq.take(2)) == 6.0)
    assert(ThresholdModel.medianPqSize(Seq.empty) == 0.0)
  }

  test("fit rejects empty input") {
    intercept[IllegalArgumentException](ThresholdModel.fit(Seq.empty))
  }
}
