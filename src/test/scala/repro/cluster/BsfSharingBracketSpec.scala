package repro.cluster

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SeriesGen
import repro.core.SeriesGen.{DatasetSpec, presets}
import repro.index.{IndexConfig, IsaxIndex, Search, SearchParams}
import repro.spark.{ChunkReport, DistributedSearch, QueryStatRow}

/** Brackets the BSF-sharing model (EXPERIMENTS.md, Known deviation 3). The
  * paper's channel (§3.4) shares BSF updates throughout a query; the
  * pipeline shares each query's best initial BSF only. Per layout, the
  * total exact-search ops start from no bound, from that initial-only
  * bound, and from the oracle bound, each query's global 1-NN distance ×
  * (1 + 1e-7): the best any sharing channel could give. No Spark session:
  * the chunk indexes are built locally, as in `SimulatorHashSpec`.
  */
class BsfSharingBracketSpec extends AnyFunSuite {

  private val n = 4096
  private val params = SearchParams(threshold = 16)
  private val indexConfig = IndexConfig(w = 8, leafCapacity = 32)

  private def indexes(spec: DatasetSpec, part: Partitioner): Seq[IsaxIndex] =
    Partitioning.members(part, n).toSeq.zipWithIndex.map { case (ids, chunk) =>
      IsaxIndex.build(chunk, ids, i => SeriesGen.series(spec, ids(i)), indexConfig)
    }

  /** The chunk reports of every query's exact search from `bound(qid)`. */
  private def reports(indexes: Seq[IsaxIndex], queries: Array[Array[Double]],
                      bound: Int => Double): Seq[ChunkReport] =
    indexes.map(index => ChunkReport(index.buildStats, queries.indices.map(q =>
      QueryStatRow.of(q, Search.exact(index, queries(q), params, startBound = bound(q))))))

  private val layouts = Seq(
    "Seismic" -> Partitioning.RandomShuffle(2), "Seismic" -> Partitioning.RandomShuffle(8),
    "Seismic" -> Partitioning.EquallySplit(n.toLong, 2), "Seismic" -> Partitioning.EquallySplit(n.toLong, 8),
    "Random" -> Partitioning.RandomShuffle(2), "Random" -> Partitioning.RandomShuffle(8))

  for ((dataset, part) <- layouts) {
    test(s"oracle <= initial-only <= no sharing in ops, answers exact " +
         s"($dataset, ${part.name}, ${part.nChunks} chunks)") {
      val spec = presets.byName(dataset, n)
      val queries = SeriesGen.queries(spec, 40)
      val data = (0L until n.toLong).map(id => (id, SeriesGen.series(spec, id)))
      val nn = queries.map(q => Search.bruteForce(data.iterator, q).head._1)
      val chunks = indexes(spec, part)
      val none = reports(chunks, queries, _ => Double.PositiveInfinity)
      val initial = none.flatMap(_.queries).groupBy(_.qid).view.mapValues(_.map(_.approxBsf).min).toMap
      val bounded = Seq("none" -> none, "initial-only" -> reports(chunks, queries, initial),
                        "oracle" -> reports(chunks, queries, q => nn(q) * (1 + 1e-7)))
      val cfg = ClusterConfig(part.nChunks, part.nChunks, _ => part, scheduler = Dynamic,
                              params = params, indexConfig = indexConfig)
      for ((name, reps) <- bounded; (q, top) <- DistributedSearch.mergeAnswers(reps, 1))
        assert(math.abs(top.head._1 - nn(q)) < 1e-9, s"$name, q=$q")
      val Seq(opsNone, opsInitial, opsOracle) = bounded.map(_._2.flatMap(_.queries).map(_.totalOps).sum)
      val Seq(secsNone, secsInitial, secsOracle) = bounded.map(b => OdysseyCluster.simulate(b._2, cfg).querySecs)
      info(f"ops initial-only/oracle ${opsInitial.toDouble / opsOracle}%.3f, " +
           f"none/oracle ${opsNone.toDouble / opsOracle}%.3f; query secs (sim, ${part.nChunks} nodes) " +
           f"none $secsNone%.3e, initial-only $secsInitial%.3e, oracle $secsOracle%.3e")
      assert(opsOracle <= opsInitial && opsInitial <= opsNone)
    }
  }
}
