package repro.core

import java.util.stream.IntStream
import scala.reflect.ClassTag

/** Blockwise parallel tabulation on the JVM's common fork-join pool (the
  * MESSI-style summarization pass: workers fill disjoint buffer slots).
  *
  * `f` must be a pure function of its position: blocks run in any order on
  * any thread, and each writes only its own slots, so the array is the same
  * as a sequential `Array.tabulate` whatever the pool size. A caller that is
  * itself a pool worker, or one of several threads tabulating at once,
  * works its own blocks and shares the pool's idle workers.
  */
object Blocks {

  /** Positions per block: large enough to amortize a fork, small enough to
    * balance uneven per-position costs.
    */
  val Size = 256

  /** `Array.tabulate(n)(f)`, computed in parallel blocks of [[Size]]. An
    * exception thrown by `f` is rethrown (same type) by the caller.
    */
  def tabulate[T: ClassTag](n: Int)(f: Int => T): Array[T] = {
    val out = new Array[T](n)
    IntStream.range(0, (n + Size - 1) / Size).parallel().forEach { b =>
      var i = b * Size
      val end = math.min(n, i + Size)
      while (i < end) { out(i) = f(i); i += 1 }
    }
    out
  }
}
