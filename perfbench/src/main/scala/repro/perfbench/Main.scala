package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import repro.SparkSpec
import repro.workload.Workloads

/** Benchmark entry point, started by `perfbench/run.py`.
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        --work-dir <dir> --results-dir <dir>
  *   Main --smoke --work-dir <dir> --results-dir <dir>
  *
  * Prints the run conditions and every metric with its unit and sample
  * count, writes them to `<results-dir>/<workload>.trace<t>.seed<n>.json`,
  * and ends standard output with one JSON line: `correct`, `attempted`,
  * `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
  * metrics (`--trace 1`).
  */
object Main {

  val tpcdsIo: TpcdsSpec = TpcdsSpec(Workloads.io2, sf = 0.01)

  final case class Args(workload: String = "", seed: Long = 0, seconds: Double = 10,
                        trace: Boolean = false, workDir: Path = Paths.get("."),
                        resultsDir: Path = Paths.get("."), smoke: Boolean = false)

  private def parse(args: List[String], a: Args = Args()): Args = args match {
    case Nil => a
    case "--smoke" :: rest => parse(rest, a.copy(smoke = true))
    case "--workload" :: v :: rest => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, a.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, a.copy(trace = v == "1"))
    case "--work-dir" :: v :: rest => parse(rest, a.copy(workDir = Paths.get(v)))
    case "--results-dir" :: v :: rest => parse(rest, a.copy(resultsDir = Paths.get(v)))
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }

  private def runConditions(rec: Recorder, spark: Boolean): Unit = {
    rec.condition("nproc", Runtime.getRuntime.availableProcessors)
    rec.condition("jvm_max_heap_mb", Runtime.getRuntime.maxMemory / (1 << 20))
    if (spark) {
      val s = SparkSpec.shared
      rec.condition("spark.master", s.sparkContext.master)
      rec.condition("spark.defaultParallelism", s.sparkContext.defaultParallelism)
      rec.condition("spark.sql.shuffle.partitions", s.conf.get("spark.sql.shuffle.partitions"))
      rec.condition("spark.scheduler.mode", s.sparkContext.getConf.get("spark.scheduler.mode", "FIFO"))
    }
  }

  /** Runs one workload into a fresh recorder. */
  def measure(workload: String, seed: Long, seconds: Double, trace: Boolean, workDir: Path,
              tpcds: TpcdsSpec = tpcdsIo,
              dagOpt: DagOptSpec = DagOptSpec()): Recorder = {
    val rec = new Recorder
    rec.condition("workload", workload)
    rec.condition("seed", seed)
    rec.condition("seconds", seconds)
    rec.condition("trace", if (trace) 1 else 0)
    workload match {
      case "tpcds-io" =>
        runConditions(rec, spark = true)
        new Tpcds(SparkSpec.shared, tpcds, workDir, rec).run(seconds, trace)
      case "dag-opt" =>
        runConditions(rec, spark = false)
        new DagOpt(dagOpt, rec).run(seed, seconds, trace)
      case _ =>
        throw new IllegalArgumentException(s"unknown workload $workload (known: tpcds-io, dag-opt)")
    }
    rec
  }

  private def metricJson(m: Metric, withSamples: Boolean): String =
    Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)) ++
      (if (withSamples) Seq("samples" -> m.samples.toString) else Nil))

  private def metricsJson(ms: Seq[Metric], withSamples: Boolean): String =
    Json.obj(ms.map(m => m.name -> metricJson(m, withSamples)))

  private def resultJson(rec: Recorder, ms: Seq[Metric], withSamples: Boolean): String =
    Json.obj(Seq(
      "conditions" -> Json.obj(rec.conditions.map { case (k, v) => k -> Json.str(v) }),
      "attempted" -> rec.attempted.toString,
      "failed" -> rec.failed.toString,
      "failures" -> rec.failures.map(Json.str).mkString("[", ", ", "]"),
      "metrics" -> metricsJson(ms, withSamples),
    ))

  private def show(rec: Recorder, ms: Seq[Metric]): Unit = {
    rec.conditions.foreach { case (k, v) => println(s"# $k: $v") }
    ms.foreach { m =>
      val n = if (m.samples == 0) "n/a" else s"n=${m.samples}"
      println(f"${m.name}%-36s ${m.value}%16.6f ${m.unit}%-6s $n")
    }
    rec.failures.foreach(f => println(s"FAILED: $f"))
  }

  private def smoke(a: Args): Unit = {
    val tiny = tpcdsIo.copy(sf = 0.002, sleep = false)
    val dagOpt = DagOptSpec(perSize = 1, minSamples = 8, capDagsPerSize = 1)
    for (w <- Seq("tpcds-io", "dag-opt"); trace <- Seq(false, true)) {
      val rec = measure(w, seed = 1, seconds = 0, trace, a.workDir, tiny, dagOpt)
      val ms = rec.metrics(if (trace) Catalog.perLayer else Catalog.endToEnd)
      show(rec, ms)
      println(Json.obj(Seq("case" -> Json.str(s"$w trace=${if (trace) 1 else 0}"),
        "result" -> resultJson(rec, ms, withSamples = true))))
    }
    val rec = new Recorder
    val mv = tiny.workload.mvs.head.name
    new Tpcds(SparkSpec.shared, tiny, a.workDir, rec).runCorrupted(mv)
    show(rec, rec.metrics(Vector("failed_frac" -> "ratio")))
    println(Json.obj(Seq("case" -> Json.str(s"corrupted $mv"),
      "result" -> resultJson(rec, rec.metrics(Vector("failed_frac" -> "ratio")), withSamples = true))))
  }

  private def run(a: Args): Unit = {
    Files.createDirectories(a.workDir)
    Files.createDirectories(a.resultsDir)
    if (a.smoke) smoke(a)
    else {
      val rec = measure(a.workload, a.seed, a.seconds, a.trace, a.workDir)
      val shown = rec.metrics(if (a.trace) Catalog.perLayer else Catalog.endToEnd)
      show(rec, shown)
      val file = a.resultsDir.resolve(s"${a.workload}.trace${if (a.trace) 1 else 0}.seed${a.seed}.json")
      Files.write(file, resultJson(rec, rec.metrics(Catalog.endToEnd ++ Catalog.perLayer),
        withSamples = true).getBytes("UTF-8"))
      println(Json.obj(Seq(
        "correct" -> rec.outputsCorrect.toString,
        "attempted" -> rec.attempted.toString,
        "failed" -> rec.failed.toString,
        "metrics" -> metricsJson(shown, withSamples = false),
      )))
    }
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try { run(parse(argv.toList)); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally org.apache.spark.sql.SparkSession.getDefaultSession.foreach(_.stop())
    System.out.flush()
    sys.exit(code)
  }
}
