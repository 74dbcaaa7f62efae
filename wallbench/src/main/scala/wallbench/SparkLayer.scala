package wallbench

import java.io.File
import scala.collection.mutable
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.unsafe.hash.Murmur3_x86_32
import repro.core.SeriesGen.DatasetSpec
import repro.index.{IndexConfig, SearchParams}
import repro.spark.{ChunkReport, DistributedSearch, SeriesFrame, SeriesRow}

/** The Spark session the benchmark pins, and what a [[SparkListener]] sees. */
object SparkLayer {

  /** The smallest shuffle partition count at which the chunk keys 0..chunks-1
    * hash (Murmur3, seed 42, as Spark's hash partitioning does) to distinct
    * partitions, so each chunk's build-and-answer task runs on its own core.
    */
  def partitionsFor(chunks: Int): Int =
    Iterator.from(chunks).find { p =>
      (0 until chunks).map(c => Math.floorMod(Murmur3_x86_32.hashInt(c, 42), p)).distinct.length == chunks
    }.get

  def session(root: File, cores: Int, chunks: Int): SparkSession = {
    val dir = new File(root, ".bench_build/spark")
    dir.mkdirs()
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("wallbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(dir, "local").getPath)
      .config("spark.sql.warehouse.dir", new File(dir, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", partitionsFor(chunks))
      // Adaptive execution would coalesce the few non-empty shuffle
      // partitions and put several chunks on one core.
      .config("spark.sql.adaptive.enabled", false)
      .getOrCreate()
  }

  final case class Totals(jobs: Int, stages: Int, tasks: Int, jobSecs: Double, runSecs: Double,
                          cpuSecs: Double, gcSecs: Double, shuffleWriteMb: Double,
                          shuffleReadMb: Double, resultMb: Double, taskMaxOverMedian: Double)

  /** Collects job, stage and task events between [[reset]] and [[totals]]. */
  final class Listener extends SparkListener {
    private final case class Task(stage: Int, runMs: Long, cpuNs: Long, gcMs: Long,
                                  writeBytes: Long, readBytes: Long, records: Long, resultBytes: Long)
    private val jobStart = mutable.Map.empty[Int, Long]
    private val jobMs = mutable.ArrayBuffer.empty[Long]
    private var stages = 0
    private val tasks = mutable.ArrayBuffer.empty[Task]

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobStart(e.jobId) = e.time }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      jobStart.remove(e.jobId).foreach(t0 => jobMs += e.time - t0)
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      val m = e.taskMetrics
      if (m != null) {
        val read = m.shuffleReadMetrics
        tasks += Task(e.stageId, m.executorRunTime, m.executorCpuTime, m.jvmGCTime,
                      m.shuffleWriteMetrics.bytesWritten, read.totalBytesRead,
                      read.recordsRead + m.inputMetrics.recordsRead + m.shuffleWriteMetrics.recordsWritten,
                      m.resultSize)
      }
    }

    def reset(spark: SparkSession): Unit = {
      ListenerBusAccess.waitUntilEmpty(spark.sparkContext)
      synchronized { jobStart.clear(); jobMs.clear(); stages = 0; tasks.clear() }
    }

    def totals(spark: SparkSession): Totals = {
      ListenerBusAccess.waitUntilEmpty(spark.sparkContext)
      synchronized {
        val mb = 1024.0 * 1024.0
        // Imbalance of the longest stage, over the tasks that handled records
        // (empty shuffle partitions finish at once and would skew the median).
        val ratio = if (tasks.isEmpty) 1.0 else {
          val longest = tasks.groupBy(_.stage).values.maxBy(_.iterator.map(_.runMs).sum)
          val busy = longest.filter(_.records > 0).map(_.runMs.toDouble)
          if (busy.isEmpty || Stats.median(busy.toSeq) <= 0) 1.0 else busy.max / Stats.median(busy.toSeq)
        }
        Totals(jobMs.length, stages, tasks.length, jobMs.sum / 1e3, tasks.map(_.runMs).sum / 1e3,
               tasks.map(_.cpuNs).sum / 1e9, tasks.map(_.gcMs).sum / 1e3,
               tasks.map(_.writeBytes).sum / mb, tasks.map(_.readBytes).sum / mb,
               tasks.map(_.resultBytes).sum / mb, ratio)
      }
    }
  }

  /** Record the listener's per-operation medians over `samples` (wall s, totals). */
  def putTotals(res: Result, samples: Seq[(Double, Totals)]): Unit = {
    def med(f: Totals => Double): Double = Stats.median(samples.map(s => f(s._2)))
    val n = samples.length
    res.put("spark.jobs", med(_.jobs), n)
    res.put("spark.stages", med(_.stages), n)
    res.put("spark.tasks", med(_.tasks), n)
    res.put("spark.executor_run_s", med(_.runSecs), n)
    res.put("spark.executor_cpu_s", med(_.cpuSecs), n)
    res.put("spark.jvm_gc_s", med(_.gcSecs), n)
    res.put("spark.shuffle_write_mb", med(_.shuffleWriteMb), n)
    res.put("spark.shuffle_read_mb", med(_.shuffleReadMb), n)
    res.put("spark.result_mb", med(_.resultMb), n)
    res.put("spark.task_max_over_median", med(_.taskMaxOverMedian), n)
    // Driver-side time: wall time of the operation outside any Spark job.
    res.put("cluster.driver_s", Stats.median(samples.map { case (wall, t) => wall - t.jobSecs }), n)
  }

  /** Time the Spark stages of `DistributedSearch.run` one at a time:
    * generation alone, a pass with no queries (generate, shuffle, build),
    * and a full pass plus the driver-side merge. Returns the last pass's
    * reports and, per full pass, its wall time with the listener's totals.
    */
  def probe(spark: SparkSession, listener: Listener, spec: DatasetSpec, chunkOf: Long => Int,
            queries: Array[Array[Double]], params: SearchParams, indexConfig: IndexConfig,
            reps: Int, tracer: Tracer, res: Result): (Seq[ChunkReport], Seq[(Double, Totals)]) = {
    var reports: Seq[ChunkReport] = Nil
    val passes = (0 until reps).map { r =>
      tracer.span("bench.probe.spark", r) {
        tracer.span("spark.gen", r)(SeriesFrame.seriesDs(spark, spec, chunkOf).foreach((_: SeriesRow) => ()))
        tracer.span("spark.build_pass", r) {
          DistributedSearch.run(spark, spec, chunkOf, Array.empty[Array[Double]], params, indexConfig)
        }
        listener.reset(spark)
        val (out, wall) = Protocol.time(tracer.span("spark.pass", r) {
          DistributedSearch.run(spark, spec, chunkOf, queries, params, indexConfig)
        })
        reports = out
        val totals = listener.totals(spark)
        tracer.span("spark.merge", r)(DistributedSearch.mergeAnswers(reports, params.k))
        wall -> totals
      }
    }
    def medS(name: String): Double = Stats.median(tracer.durations(name)) / 1e9
    res.put("spark.gen_s", medS("spark.gen"), reps)
    res.put("spark.build_pass_s", medS("spark.build_pass"), reps)
    res.put("spark.pass_s", medS("spark.pass"), reps)
    res.put("spark.merge_ms", medS("spark.merge") * 1e3, reps)
    (reports, passes)
  }
}
