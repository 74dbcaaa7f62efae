package wallbench

import java.lang.management.ManagementFactory
import scala.collection.mutable

/** The steady-state protocol shared by all workloads.
  *
  * A pass is one fixed unit of work (the whole query set, or one batch).
  * Warm-up repeats passes until the pass time stops falling: the last two
  * passes each failed to beat the best earlier pass by more than
  * [[SteadyMargin]]. Only then does the timed window start; it runs whole
  * passes until `seconds` have gone by.
  */
object Protocol {

  val SteadyMargin = 0.03

  def seconds(nanos: Long): Double = nanos / 1e9

  def time[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, seconds(System.nanoTime() - t0))
  }

  /** True once the last two passes each fail to beat every earlier pass by the margin. */
  def steady(times: Seq[Double], minPasses: Int): Boolean = {
    val n = times.length
    n >= math.max(3, minPasses) &&
      (n - 2 until n).forall(i => times(i) >= (1 - SteadyMargin) * times.take(i).min)
  }

  /** Warm up until steady or until `maxSeconds`; returns the warm-up pass times. */
  def warmUp(minPasses: Int, maxSeconds: Double)(pass: () => Double): Seq[Double] = {
    val times = mutable.ArrayBuffer.empty[Double]
    while (!steady(times.toSeq, minPasses) && times.sum < maxSeconds) times += pass()
    if (!steady(times.toSeq, minPasses))
      Console.err.println(f"wallbench: warm-up stopped at its ${maxSeconds}%.0f s cap before passes settled")
    times.toSeq
  }

  /** Run whole passes until `seconds` have elapsed (at least `minPasses`); returns pass times. */
  def window(seconds: Double, minPasses: Int)(pass: () => Double): Seq[Double] = {
    val times = mutable.ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (times.length < minPasses || Protocol.seconds(System.nanoTime() - t0) < seconds)
      times += pass()
    times.toSeq
  }

  /** Live heap (MiB) after a full collection. */
  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
