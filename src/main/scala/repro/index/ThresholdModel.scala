package repro.index

/** TH selection (§3.2.1, Fig. 6).
  *
  * The paper observes a sigmoid-shaped correlation between a query's
  * initial BSF and the *median priority-queue size* produced while
  * answering it, fits
  * `f(z) = m + (M - m) / (1 + b·exp(-c(z - d)))`,
  * and sets `TH = f(initialBSF) / divisionFactor` (factor 16 for Seismic).
  * We reproduce the fit with a small Nelder–Mead optimizer over the five
  * parameters.
  */
object ThresholdModel {

  /** Fitted sigmoid: value range [m, M] (in queue-size units, not [0,1] —
    * we fit the un-normalized curve directly), shape b, slope c, center d.
    */
  final case class SigmoidFit(m: Double, M: Double, b: Double, c: Double, d: Double) {
    def apply(z: Double): Double = m + (M - m) / (1 + b * math.exp(-c * (z - d)))
  }

  /** Median leaf count of a run's queues, 0 if none (uncapped: the fit's target). */
  def medianPqSize(queues: Seq[PqStat]): Double =
    if (queues.isEmpty) 0.0
    else {
      val sizes = queues.map(_.leaves.toDouble).sorted
      val n = sizes.length
      if (n % 2 == 1) sizes(n / 2) else (sizes(n / 2 - 1) + sizes(n / 2)) / 2
    }

  /** Least-squares sigmoid fit of (initialBSF, medianPqSize) points. */
  def fit(points: Seq[(Double, Double)]): SigmoidFit = {
    require(points.nonEmpty, "cannot fit on zero points")
    val xs = points.map(_._1); val ys = points.map(_._2)
    val x0 = Array(ys.min, ys.max.max(ys.min + 1), 1.0,
                   4.0 / math.max(1e-9, xs.max - xs.min), xs.sum / xs.length)
    def sse(p: Array[Double]): Double = {
      val f = SigmoidFit(p(0), p(1), math.max(1e-6, p(2)), p(3), p(4))
      points.iterator.map { case (x, y) => val e = f(x) - y; e * e }.sum
    }
    val best = NelderMead.minimize(sse, x0, iters = 2500)
    SigmoidFit(best(0), math.max(best(0), best(1)), math.max(1e-6, best(2)), best(3), best(4))
  }

  /** TH for a query given its initial BSF: the fitted median estimate
    * divided by the division factor, floored to a sane minimum.
    */
  def thresholdFor(fit: SigmoidFit, initialBsf: Double, divisionFactor: Double): Int =
    math.max(2, math.round(fit(initialBsf) / divisionFactor).toInt)
}

/** Minimal derivative-free Nelder–Mead simplex minimizer. */
object NelderMead {
  def minimize(f: Array[Double] => Double, x0: Array[Double],
               iters: Int = 1000): Array[Double] = {
    val step = 0.25 // initial simplex: a vertex moves one coordinate by this share of it (or by it, from 0)
    val n = x0.length
    var simplex = Array.tabulate(n + 1) { i =>
      val p = x0.clone()
      if (i > 0) p(i - 1) += (if (p(i - 1) == 0) step else math.abs(p(i - 1)) * step + 1e-6)
      (p, f(p))
    }
    var it = 0
    while (it < iters) {
      simplex = simplex.sortBy(_._2)
      val worstIdx = n
      val centroid = new Array[Double](n)
      var i = 0
      while (i < n) { var j = 0; while (j < n) { centroid(j) += simplex(i)._1(j) / n; j += 1 }; i += 1 }
      def combine(alpha: Double): Array[Double] =
        Array.tabulate(n)(j => centroid(j) + alpha * (centroid(j) - simplex(worstIdx)._1(j)))
      val refl = combine(1.0); val fr = f(refl)
      if (fr < simplex(0)._2) {
        val exp = combine(2.0); val fe = f(exp)
        simplex(worstIdx) = if (fe < fr) (exp, fe) else (refl, fr)
      } else if (fr < simplex(n - 1)._2) simplex(worstIdx) = (refl, fr)
      else {
        val con = combine(-0.5); val fc = f(con)
        if (fc < simplex(worstIdx)._2) simplex(worstIdx) = (con, fc)
        else {
          // shrink toward the best vertex
          val bestP = simplex(0)._1
          simplex = simplex.zipWithIndex.map { case ((p, fp), idx) =>
            if (idx == 0) (p, fp)
            else {
              val q = Array.tabulate(n)(j => bestP(j) + 0.5 * (p(j) - bestP(j)))
              (q, f(q))
            }
          }
        }
      }
      it += 1
    }
    simplex.minBy(_._2)._1
  }
}
