package wallbench

import java.io.{ByteArrayOutputStream, DataOutputStream, File}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import java.security.MessageDigest
import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._
import repro.core.{Cost, Distances}
import repro.index.{Dtw, Euclidean, Mode, Search}

/** Correctness and determinism checks.
  *
  * Answers are compared with `Search.bruteForce` under this tie rule: at
  * every rank the answered distance equals the reference distance (relative
  * tolerance [[Tol]]), and the answered id is a distinct series whose own
  * distance to the query equals that distance. So when several series are
  * equally near, any of them may be returned, and nothing else may.
  */
object Check {

  val Tol = 1e-9

  def close(a: Double, b: Double): Boolean = math.abs(a - b) <= Tol * math.max(1.0, math.abs(b))

  /** @param distOf recomputes the full distance from the query to a series id */
  def answerOk(ans: Seq[(Double, Long)], ref: Seq[(Double, Long)], distOf: Long => Double): Boolean =
    ans.length == ref.length &&
      ans.map(_._2).distinct.length == ans.length &&
      ans.zip(ref).forall { case ((d, id), (rd, rid)) =>
        close(d, rd) && (id == rid || close(distOf(id), rd))
      }

  /** The exact answers by `Search.bruteForce`, one query per task on
    * `threads` threads. `data(id)` is series `id`.
    */
  def reference(data: Array[Array[Double]], queries: Array[Array[Double]], mode: Mode, k: Int,
                threads: Int): Array[List[(Double, Long)]] = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val tasks = queries.toSeq.map { q =>
        new Callable[List[(Double, Long)]] {
          def call(): List[(Double, Long)] =
            Search.bruteForce(data.iterator.zipWithIndex.map { case (v, id) => (id.toLong, v) }, q, mode, k)
        }
      }
      pool.invokeAll(tasks.asJava).asScala.map(_.get).toArray
    } finally pool.shutdownNow()
  }

  /** The full distance between `q` and `s` under `mode`. */
  def distance(q: Array[Double], s: Array[Double], mode: Mode): Double = mode match {
    case Euclidean => Distances.ed(q, s)
    case Dtw(r)    => Distances.dtwBand(q, s, r, Double.PositiveInfinity, new Cost)
  }

  /** A digest of the values a deterministic run must repeat exactly. */
  final class Fingerprint {
    private val bytes = new ByteArrayOutputStream()
    private val out = new DataOutputStream(bytes)
    def long(v: Long): this.type = { out.writeLong(v); this }
    def double(v: Double): this.type = { out.writeLong(java.lang.Double.doubleToLongBits(v)); this }
    def longs(vs: Iterable[Long]): this.type = { long(vs.size); vs.foreach(long); this }
    def hex: String = {
      out.flush()
      MessageDigest.getInstance("SHA-256").digest(bytes.toByteArray).take(12).map("%02x".format(_)).mkString
    }
  }

  /** Check `fp` against the one an earlier process of the same build
    * recorded for this workload and seed, or record it. Returns the
    * problem, if any.
    */
  def acrossProcesses(root: File, stamp: String, key: String, fp: String): Option[String] = {
    val file = new File(root, s".bench_build/fingerprints/$key")
    file.getParentFile.mkdirs()
    val line = s"$stamp $fp"
    if (file.isFile) {
      val prev = new String(Files.readAllBytes(file.toPath), UTF_8).trim
      if (prev.startsWith(stamp + " ") && prev != line)
        return Some(s"deterministic counts differ from an earlier process ($prev vs $line)")
      if (prev == line) return None
    }
    Files.write(file.toPath, line.getBytes(UTF_8))
    None
  }
}
