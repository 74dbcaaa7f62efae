package wallbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is one call into a layer, timed from the benchmark's side: name,
  * start, end, the span that was open when it began (its parent), and a
  * group id shared by every span of one query or batch. The layer is the
  * name's prefix before the first dot; `bench.*` spans are the harness's own.
  * Spans stay in memory until [[write]]. Calls are made from one thread. A
  * disabled tracer runs the body and records nothing.
  */
final class Tracer(val enabled: Boolean = true) {
  import Tracer.Span

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def span[T](name: String, group: Long = -1L)(body: => T): T =
    if (enabled) record(name, group, body) else body

  private def record[T](name: String, group: Long, body: => T): T = {
    val id = spans.length
    val parent = open.headOption.getOrElse(-1)
    spans += Span(id, name, parent, group, System.nanoTime(), -1L)
    open = id :: open
    try body
    finally {
      open = open.tail
      spans(id) = spans(id).copy(end = System.nanoTime())
    }
  }

  def all: Seq[Span] = spans.toSeq

  /** Durations (ns) of every closed span called `name`. */
  def durations(name: String): Seq[Double] =
    spans.iterator.filter(s => s.name == name && s.end >= 0).map(_.nanos.toDouble).toSeq

  /** Span duration minus the time its children cover (children never overlap). */
  def selfNanos: Map[Int, Long] = {
    val child = new Array[Long](spans.length)
    spans.foreach(s => if (s.parent >= 0) child(s.parent) += s.nanos)
    spans.iterator.map(s => s.id -> (s.nanos - child(s.id))).toMap
  }

  /** Total self time per layer (ns). */
  def selfByLayer: Map[String, Long] = {
    val self = selfNanos
    spans.groupBy(_.layer).view.mapValues(_.iterator.map(s => self(s.id)).sum).toMap
  }

  /** Share of the root spans' time spent inside program layers. */
  def coverage: Double = {
    val self = selfNanos
    val total = spans.iterator.filter(_.parent < 0).map(_.nanos).sum
    val inLayers = spans.iterator.filter(_.layer != "bench").map(s => self(s.id)).sum
    if (total == 0) 0.0 else inLayers.toDouble / total
  }

  /** Write the spans as JSON lines. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, "group": ${s.group}, "start_ns": ${s.start}, "end_ns": ${s.end}}""")
    } finally out.close()
  }
}

object Tracer {
  final case class Span(id: Int, name: String, parent: Int, group: Long, start: Long, end: Long) {
    def nanos: Long = end - start
    def layer: String = name.takeWhile(_ != '.')
  }
}
