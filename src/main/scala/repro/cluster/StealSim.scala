package repro.cluster

import scala.collection.mutable
import repro.cluster.IntraNodeSim.QueryWork
import repro.core.Rng
import repro.index.PqStat

/** Event-driven simulation of one replication group answering a query
  * batch (§3.1 scheduling + §3.2.2 work stealing).
  *
  * Each node serves its query queue from [[Scheduling.queues]]: a static
  * scheduler gives every node its own queue, a dynamic one lets all nodes
  * pull from the coordinator's one queue. A node whose queue is empty tries
  * to steal (when stealing is on); a node that can do neither gets no
  * further event.
  *
  * Every node in the group holds the same chunk, so each query's execution
  * plan ([[IntraNodeSim.QueryWork]]) is identical across members. The
  * serial + traversal phases are opaque busy intervals. The PQ-processing
  * phase is *task-granular*: PQ tasks are list-scheduled in sorted order
  * onto the node's threads (so an undisturbed query takes its serial and
  * traversal time plus the list-scheduled makespan of its tasks), and a
  * task is stealable while it has not started yet.
  *
  * Stealing follows Algorithms 3-4: an idle node picks a random still-active
  * victim; the victim gives away the queues of up to `nSend` RS-batches that
  * satisfy the Take-Away property (rightmost = largest top lower bound =
  * most likely still unprocessed) and drops every pending queue of them, so
  * a stolen batch is never pending, nor stolen, again; the thief
  * re-traverses those batches on its own index replica (rebuild cost) and
  * processes them on its own threads. The victim declines (gives nothing)
  * when the thief, after handshake, rebuild and processing, would end no
  * earlier than the victim's query would without the steal.
  */
object StealSim {

  /** Ops charged per steal handshake (request + reply messages). Scaled to
    * the reproduction's workload sizes: a pair of small messages costs far
    * less than one priority queue's processing, as on the paper's cluster.
    */
  val HandshakeOps: Long = 2_000L

  /** N_send: RS-batches a victim gives away per steal (§3.2.2). */
  val NSend: Int = 4

  /** @param perNodeFinish when each node of the group last ran a query or a
    *                     steal
    * @param stolenOps    what the thieves ran: handshakes, rebuilds and the
    *                     moved queues
    * @param processedOps every query's serial and PQ ops once, plus each
    *                     steal's handshake and rebuild
    */
  final case class GroupResult(makespan: Double, perNodeFinish: Vector[Double],
                               nSteals: Int, stolenOps: Long, processedOps: Long)

  /** One scheduled PQ task: absolute [start, end) on a specific thread. */
  private final case class Slot(task: PqStat, start: Double, end: Double, thread: Int)

  /** List-schedule `tasks` in order onto threads whose absolute free times
    * are `clocks`, advancing them.
    */
  private def schedule(tasks: Seq[PqStat], clocks: Array[Double]): Vector[Slot] = {
    val slots = Vector.newBuilder[Slot]
    tasks.foreach { tk =>
      val th = clocks.indices.minBy(clocks)
      val start = clocks(th)
      val end = start + CostModel.serialSecs(tk.procOps)
      slots += Slot(tk, start, end, th)
      clocks(th) = end
    }
    slots.result()
  }

  private final class Running(val qw: QueryWork, val pqStart: Double, threads: Int) {
    var slots: Vector[Slot] = schedule(qw.tasks, Array.fill(threads)(pqStart))
    def finish: Double = if (slots.isEmpty) pqStart else slots.map(_.end).max

    /** Slots not yet started at `t` (stealable region). */
    def pendingAt(t: Double): Vector[Slot] = slots.filter(_.start > t)

    /** Drop the tasks of `batches` not yet started at `t` and reschedule
      * the remaining pending slots onto the threads' current availability.
      */
    def remove(t: Double, batches: collection.Set[Int]): Unit = {
      val (fixed, pending) = slots.partition(_.start <= t)
      val keepPending = pending.filterNot(s => batches(s.task.batchId))
      val threadFree = Array.fill(threads)(t)
      fixed.foreach(s => threadFree(s.thread) = math.max(threadFree(s.thread), s.end))
      slots = fixed ++ schedule(keepPending.map(_.task), threadFree)
    }
  }

  /** A node serving `queue`; only its event of the current `version` is live. */
  private final class NodeState(val queue: mutable.Queue[Int]) {
    var version: Int = 0
    var current: Running = _
    var lastActive: Double = 0.0
  }

  /** Simulate a group of `nNodes` nodes answering `works` (indexed by qid).
    *
    * @param kind  scheduler: the nodes' queues come from [[Scheduling.queues]]
    * @param est   predicted cost per query (used by PREDICT-* kinds)
    * @param steal enable inter-node work stealing
    */
  def simulate(nNodes: Int, works: Map[Int, QueryWork], qids: Seq[Int],
               kind: SchedulerKind, est: Int => Double,
               steal: Boolean, nSend: Int = NSend,
               threads: Int = CostModel.ThreadsPerNode,
               seed: Long = 1234): GroupResult = {
    require(nNodes >= 1)
    val rng = new Rng.Stream(Rng.key(seed, nNodes.toLong))
    val nodes = Scheduling.queues(kind, qids, est, nNodes).map(new NodeState(_))

    var nSteals = 0
    var stolenOps = 0L
    var processedOps = 0L

    implicit val ord: Ordering[(Double, Int, Int)] = Ordering.by(e => -e._1)
    val events = mutable.PriorityQueue.empty[(Double, Int, Int)]
    (0 until nNodes).foreach(n => events.enqueue((0.0, n, 0)))

    def startQuery(n: Int, t: Double, qid: Int): Unit = {
      val st = nodes(n)
      val qw = works(qid)
      val pqStart = t + CostModel.serialSecs(qw.serialOps) + qw.traversalSecs
      st.current = new Running(qw, pqStart, threads)
      st.version += 1
      st.lastActive = st.current.finish
      processedOps += qw.serialOps + qw.pqOpsTotal
      events.enqueue((st.lastActive, n, st.version))
    }

    def attemptSteal(n: Int, t: Double): Boolean = {
      val candidates = nodes.indices.filter { m =>
        m != n && nodes(m).current != null && nodes(m).current.pendingAt(t).nonEmpty
      }
      if (candidates.isEmpty) return false
      val m = candidates(rng.nextInt(candidates.length))
      val st = nodes(m); val r = st.current
      val pending = r.pendingAt(t)
      // Take-Away property: from the rightmost (largest top-lb) queues, take
      // whole RS-batches until nSend batches are chosen. Task order in the
      // slots vector is the sorted PQ-array order (and slots are in start
      // order), so "rightmost" = last.
      val chosen = pending.reverseIterator.map(_.task.batchId).distinct.take(nSend).toSet
      val taken = pending.filter(s => chosen(s.task.batchId)).map(_.task)
      // thief: handshake + rebuild of the stolen batches + processing,
      // list-scheduled on its own threads (`pending` is non-empty, so is `taken`)
      val rebuild = chosen.iterator.map(r.qw.batchOps(_)).sum
      val serialPart = CostModel.serialSecs(HandshakeOps + rebuild)
      val busyUntil = schedule(taken, Array.fill(threads)(t + serialPart)).map(_.end).max
      // profitability: a thief that would end no earlier than the victim's
      // query as it stands could only delay the group — the victim declines
      // (|S| = 0)
      if (busyUntil >= r.finish) return false
      r.remove(t, chosen)
      st.version += 1
      st.lastActive = r.finish
      events.enqueue((st.lastActive, m, st.version))
      val me = nodes(n)
      me.version += 1
      me.lastActive = busyUntil
      nSteals += 1
      stolenOps += HandshakeOps + rebuild + taken.map(_.procOps).sum
      // the victim counted the moved queues' ops when it started the query
      processedOps += HandshakeOps + rebuild
      events.enqueue((busyUntil, n, me.version))
      true
    }

    /** Earliest future instant at which another node's state can change.
      * Retries are scheduled against these real wake points — never against
      * other nodes' retry events — so the loop always makes progress. A
      * node's `lastActive` lies ahead of `t` only while it runs a query or a
      * steal.
      */
    def nextWakePoint(n: Int, t: Double): Option[Double] = {
      var best = Double.PositiveInfinity
      nodes.indices.foreach { m =>
        if (m != n) {
          val s = nodes(m)
          if (s.current != null && s.current.pqStart > t) best = math.min(best, s.current.pqStart)
          if (s.lastActive > t) best = math.min(best, s.lastActive)
        }
      }
      if (best.isInfinity) None else Some(best)
    }

    while (events.nonEmpty) {
      val (t, n, v) = events.dequeue()
      val st = nodes(n)
      if (v == st.version) {
        st.current = null
        st.queue.removeHeadOption() match {
          case Some(q) => startQuery(n, t, q)
          case None =>
            if (steal && !attemptSteal(n, t))
              nextWakePoint(n, t).foreach { w =>
                st.version += 1
                events.enqueue((math.max(w, t + 1e-9), n, st.version))
              }
        }
      }
    }

    val finish = nodes.map(_.lastActive).toVector
    GroupResult(finish.max, finish, nSteals, stolenOps, processedOps)
  }
}
