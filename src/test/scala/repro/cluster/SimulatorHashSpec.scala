package repro.cluster

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.SeriesGen
import repro.core.SeriesGen.presets
import repro.index.{IndexConfig, IsaxIndex, PqStat, QueryRun, Search, SearchParams}
import repro.spark.{ChunkReport, QueryStatRow}

/** Pins the driver-side simulator the way `SearchSpec`'s `OpCountHash`
  * pins the search, in two constants: `ReportsHash` folds every field of
  * every `RunResult` that `OdysseyCluster.simulate` gives over local
  * measurements of a small collection, and `GroupsHash` every field of
  * every `GroupResult` that `StealSim.simulate` gives over fixed-seed
  * generated groups. No Spark session: the chunk reports come from
  * `Search.exact` on locally built chunk indexes. It also checks which
  * fields of a row the simulator reads, that `simulate` refuses reports
  * whose rows disagree, and that the benchmark's replay
  * (`wallbench/Sim.scala`), which turns `QueryRun`s back into rows, gives
  * the same groups as `simulate`.
  */
class SimulatorHashSpec extends AnyFunSuite {

  // Refactors and speed-ups must keep both: the simulated tables are these
  // runs' times. Only a change that sets out to alter the simulator, the
  // cost model or the search records new values (and re-records
  // EXPERIMENTS.md). The generated groups are rows as the pipeline collects
  // them, so a query's traversal time follows from its `batchOps`.
  private val ReportsHash = 0x7e5e541219b8ed3fL
  private val GroupsHash = 0x8b4d5902d50c7362L

  private val n = 4096
  private val spec = presets.seismic(n)
  private val queries = SeriesGen.queries(spec, 20)
  private val params = SearchParams(threshold = 16)
  private val indexConfig = IndexConfig(w = 8, leafCapacity = 32)

  /** The chunk reports `OdysseyCluster.measure` would give under `part`
    * with the BSF channel off.
    */
  private def reports(part: Partitioner): Seq[ChunkReport] =
    Partitioning.members(part, n).toSeq.zipWithIndex.map { case (ids, chunk) =>
      val index = IsaxIndex.build(chunk, ids, i => SeriesGen.series(spec, ids(i)), indexConfig)
      ChunkReport(index.buildStats,
                  queries.indices.map(q => QueryStatRow.of(q, Search.exact(index, queries(q), params))))
    }

  private val model = Some(Prediction.LinearModel(2.0e5, 1.0e4, 1.0))

  /** Each local chunking with its reports. */
  private lazy val chunkReports: Seq[(Partitioner, Seq[ChunkReport])] =
    Seq[Partitioner](Partitioning.RandomShuffle(1), Partitioning.RandomShuffle(2),
                     Partitioning.EquallySplit(n.toLong, 4)).map(part => part -> reports(part))

  /** Every (degree, scheduler, steal) config over `part`. */
  private def configs(part: Partitioner): Seq[ClusterConfig] =
    for (degree <- Seq(1, 2, 8); kind <- StealSimPropertiesSpec.kinds; steal <- Seq(false, true))
      yield ClusterConfig(part.nChunks * degree, part.nChunks, _ => part,
                          scheduler = kind, steal = steal, params = params, indexConfig = indexConfig)

  private final class Hash {
    var h = 0xcbf29ce484222325L
    def long(v: Long): Unit = { h = (h ^ v) * 0x100000001b3L; h ^= h >>> 31 }
    def double(d: Double): Unit = long(java.lang.Double.doubleToRawLongBits(d))
  }

  private def fold(hash: Hash, r: RunResult): Unit = {
    r.answers.toSeq.sortBy(_._1).foreach { case (qid, top) =>
      hash.long(qid.toLong); hash.long(top.length.toLong)
      top.foreach { case (d, id) => hash.double(d); hash.long(id) }
    }
    hash.double(r.querySecs); hash.long(r.nSteals.toLong)
    hash.double(r.bufferSecs); hash.double(r.treeSecs); hash.long(r.indexBytes)
  }

  private def fold(hash: Hash, g: StealSim.GroupResult): Unit = {
    hash.double(g.makespan)
    hash.long(g.perNodeFinish.length.toLong); g.perNodeFinish.toSeq.foreach(hash.double)
    hash.long(g.nSteals.toLong); hash.long(g.stolenOps); hash.long(g.processedOps)
  }

  /** The rescue scenario of `StealSimSpec`: one hard query of 256 fine
    * queues among trivial ones, so idle nodes steal many times.
    */
  private def rescueWorks: Map[Int, QueryStatRow] =
    (0 until 8).map { q =>
      val (nTasks, ops) = if (q == 0) (256, 25000000L) else (8, 2000000L)
      q -> QueryStatRow(q, Nil, Nil, approxBsf = 0.0, approxOps = 0L, batchOps = Seq.fill(nTasks)(ops / 10),
                        tasks = Seq.tabulate(nTasks)(i => PqStat(i, i.toDouble, 1, ops)),
                        totalOps = nTasks * (ops + ops / 10), nRealDists = 0L)
    }.toMap

  test("simulated runs and groups match the recorded hash") {
    val reportsHash = new Hash
    var runSteals = 0
    for ((part, reps) <- chunkReports; cfg <- configs(part)) {
      val r = OdysseyCluster.simulate(reps, cfg, model)
      runSteals += r.nSteals
      fold(reportsHash, r)
    }

    val groupsHash = new Hash
    var maxGroupSteals = 0
    val generated = (0L until 300L).map(s => StealSimPropertiesSpec.genGroup.pureApply(Gen.Parameters.default, Seed(s)))
    val rescue = for (nNodes <- Seq(2, 4, 8); kind <- StealSimPropertiesSpec.kinds)
      yield StealSimPropertiesSpec.Group(nNodes, rescueWorks, rescueWorks.keys.map(q => q -> (q + 1.0)).toMap,
                                         kind, steal = true, seed = 77L + nNodes)
    for (g <- generated ++ rescue) {
      val r = g.run()
      maxGroupSteals = math.max(maxGroupSteals, r.nSteals)
      fold(groupsHash, r)
    }

    assert(runSteals > 0, "no simulated run stole")
    assert(maxGroupSteals >= 10, s"no group stole many times (at most $maxGroupSteals)")
    assert(reportsHash.h == ReportsHash, f"reports hash 0x${reportsHash.h}%016xL")
    assert(groupsHash.h == GroupsHash, f"groups hash 0x${groupsHash.h}%016xL")
  }

  private def label(part: Partitioner, cfg: ClusterConfig): String =
    s"${part.name} of ${part.nChunks} chunks, degree ${cfg.layout.degree}, ${cfg.scheduler.name}, steal=${cfg.steal}"

  /** `reps` with query `qid`'s row on the last chunk replaced by `f` of it. */
  private def lastChunkRow(reps: Seq[ChunkReport], qid: Int)(f: QueryStatRow => QueryStatRow): Seq[ChunkReport] =
    reps.init :+ reps.last.copy(queries = reps.last.queries.map(q => if (q.qid == qid) f(q) else q))

  test("groups read a row's approxOps, batchOps and tasks, not its answer or its totals") {
    for ((part, reps) <- chunkReports; cfg <- configs(part)) {
      val groups = OdysseyCluster.simulate(reps, cfg, model).groups
      val blank = reps.map(r => r.copy(queries = r.queries.map(
        _.copy(topKDists = Nil, topKIds = Nil, totalOps = 0L, nRealDists = 0L))))
      assert(OdysseyCluster.simulate(blank, cfg, model).groups == groups, label(part, cfg))
      // not vacuous: one more approximate op, or one batch grown past the
      // others, moves the last chunk's group and no other. Only without
      // stealing, which can absorb a longer traversal: a thief that idled
      // steals when its victim's timeline lets it, and a steal that lands
      // in the victim's traversal reschedules the victim's queues from then.
      if (!cfg.steal) {
        val approx = lastChunkRow(reps, 5)(q => q.copy(approxOps = q.approxOps + 1))
        val batch = lastChunkRow(reps, 5)(q => q.copy(batchOps = q.batchOps.updated(0, 10 * q.batchOps.max + 1)))
        for (changed <- Seq(approx, batch)) {
          val moved = OdysseyCluster.simulate(changed, cfg, model).groups
          assert(moved.init == groups.init && moved.last != groups.last, label(part, cfg))
        }
      }
    }
  }

  test("simulate refuses reports whose query rows disagree, naming the chunk") {
    val (part, reps) = chunkReports.find(_._1.nChunks == 2).get
    val second = reps(1)
    val missing = second.copy(queries = second.queries.patch(3, Nil, 1))
    val extra = second.copy(queries = second.queries :+ second.queries.head.copy(qid = queries.length))
    for (bad <- Seq(missing, extra)) {
      val e = intercept[IllegalArgumentException](OdysseyCluster.simulate(reps.updated(1, bad), configs(part).head, model))
      assert(e.getMessage.contains(s"chunk ${second.build.chunk} reports queries") &&
             e.getMessage.contains(s"chunk ${reps.head.build.chunk} reports"), e.getMessage)
    }
  }

  /** A row as the `QueryRun` it was flattened from, field by field, as the
    * benchmark's replay rebuilds it.
    */
  private def toRun(q: QueryStatRow): QueryRun =
    QueryRun(q.topKDists.zip(q.topKIds).toList, q.approxBsf, q.approxOps, q.batchOps.toArray,
             q.tasks.iterator.map(t => PqStat(t.batchId, t.topLb, t.leaves, t.procOps)).toArray,
             q.totalOps, q.tasks.iterator.map(_.leaves.toLong).sum, q.nRealDists)

  test("the benchmark's replay from rebuilt runs gives every simulated group") {
    var steals = 0
    for ((part, reps) <- chunkReports; cfg <- configs(part)) {
      val degree = cfg.layout.degree
      val qids = reps.head.queries.map(_.qid)
      val replayed = reps.map { rep =>
        val runs = rep.queries.map(q => q.qid -> toRun(q)).toMap
        val works = runs.map { case (qid, run) => qid -> IntraNodeSim.plan(qid, run, cfg.threads) }
        val est: Int => Double = q => model.map(_.predict(runs(q).approxBsf)).getOrElse(1.0)
        StealSim.simulate(degree, works, qids, cfg.scheduler, est, steal = cfg.steal && degree > 1,
                          nSend = cfg.nSend, threads = cfg.threads, seed = 77L + rep.build.chunk)
      }
      steals += replayed.map(_.nSteals).sum
      assert(replayed == OdysseyCluster.simulate(reps, cfg, model).groups, label(part, cfg))
    }
    assert(steals > 0, "no replayed group stole")
  }
}
