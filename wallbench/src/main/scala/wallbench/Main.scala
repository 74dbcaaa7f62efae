package wallbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.util.control.NonFatal

/** One run's arguments and the settings every workload shares. */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean) {
  val root: File = new File(sys.props.getOrElse("wallbench.root", "."))
  val stamp: String = sys.props.getOrElse("wallbench.stamp", "unstamped")
  /** Worker threads (Spark's local[N], brute-force reference): at most four. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)
}

/** Runs one workload and prints its report; the last line is the JSON result.
  *
  * Usage: `wallbench.Main <node-ed|cluster> <seed> <seconds> <trace 0|1>`
  * (normally through `run.py`, which builds the classes and pins the JVM).
  */
object Main {

  def main(argv: Array[String]): Unit = {
    if (argv.length != 4 || !Set("0", "1")(argv(3)))
      fail("usage: wallbench.Main <workload> <seed> <seconds> <trace 0|1>")
    val args = Args(argv(0), argv(1).toLong, argv(2).toInt, argv(3) == "1")
    val res = new Result
    val tracer = new Tracer(args.trace)
    try args.workload match {
      case "node-ed" => NodeBench.run(NodeBench.NodeEd, args, tracer, res)
      case "cluster" => ClusterBench.run(args, tracer, res)
      case other     => fail(s"unknown workload $other")
    } catch {
      case NonFatal(e) =>
        e.printStackTrace()
        res.problem(s"run aborted: $e")
    }
    res.put("failed_frac", if (res.attempted == 0) 1.0 else res.failed.toDouble / res.attempted)
    if (args.trace) {
      val self = tracer.selfByLayer
      for (layer <- Seq("core", "index", "spark", "cluster", "bench"))
        res.put(s"self.${layer}_s", self.getOrElse(layer, 0L) / 1e9, tracer.all.count(_.layer == layer))
      res.put("trace.coverage_frac", tracer.coverage, tracer.all.length)
      tracer.write(new File(args.root, s".bench_build/traces/${args.workload}-seed${args.seed}.jsonl"))
    }
    report(args, res)
    sys.exit(if (res.correct) 0 else 1)
  }

  private def fail(msg: String): Nothing = {
    Console.err.println(s"wallbench: $msg")
    sys.exit(2)
  }

  private def report(args: Args, res: Result): Unit = {
    val defs = if (args.trace) Metrics.perLayer else Metrics.endToEnd
    val jvm = ManagementFactory.getRuntimeMXBean
    println(s"# wallbench workload=${args.workload} seed=${args.seed} seconds=${args.seconds} " +
            s"trace=${if (args.trace) 1 else 0} nproc=${Runtime.getRuntime.availableProcessors} " +
            s"cores=${args.cores} jvm=${jvm.getVmVersion} flags=[${sys.props.getOrElse("wallbench.jvmflags", "")}]")
    val chosen = res.select(defs) // records any metric that was not measured as a problem
    println(s"# checked ${res.attempted} answers, ${res.failed} wrong or thrown")
    res.problems.foreach(p => println(s"# FAILED: $p"))
    for ((d, v) <- chosen)
      println(f"# ${d.name}%-32s ${v.value}%14.6g ${d.unit}%-6s n=${v.samples}")
    println(res.json(chosen))
  }
}
