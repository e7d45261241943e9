package repro.perfbench

import scala.collection.mutable

/** One reported number: its value, unit and how many samples it summarises
  * (0 when the metric does not apply to the workload; the value is then 0).
  */
final case class Metric(name: String, value: Double, unit: String, samples: Int)

/** Every metric the benchmark prints, by name and unit, in output order.
  * BENCHMARK.json lists the same names; `run.py --smoke` checks they agree.
  */
object Catalog {
  val endToEnd: Vector[(String, String)] = Vector(
    "refresh_s" -> "s", "noopt_refresh_s" -> "s", "speedup" -> "x",
    "plan_saved_s" -> "model_s", "plan_ms" -> "ms", "plan_ms.p90" -> "ms", "setup_s" -> "s",
  )

  private val methods = Vector("sc", "noopt")

  val perLayer: Vector[(String, String)] = Vector(
    "workload.generate_s" -> "s", "workload.warmup_s" -> "s", "workload.calibrate_s" -> "s",
    "workload.dataset_mb" -> "MB", "workload.mv_nodes" -> "count",
    "core.solve_ms" -> "ms", "core.iterations" -> "count", "core.constraints_ms" -> "ms",
    "core.mkp_ms" -> "ms", "core.madfs_ms" -> "ms", "core.peak_check_ms" -> "ms",
    "core.alive_rows" -> "count", "core.constraint_rows" -> "count",
    "core.flagged_nodes" -> "count", "core.flagged_bytes_over_budget" -> "ratio",
    "core.candidate_bytes_over_budget" -> "ratio", "core.saved_vs_100x_cap" -> "ratio",
  ) ++ methods.flatMap(m => Vector(
    s"exec.read_model_s.$m" -> "s", s"exec.compute_s.$m" -> "s", s"exec.write_fg_s.$m" -> "s",
    s"exec.write_bg_s.$m" -> "s", s"exec.tail_s.$m" -> "s",
  )) ++ Vector(
    "exec.catalog_hit_frac" -> "ratio", "exec.flagged_child_exec_ratio" -> "ratio",
    "exec.persisted_at_return" -> "count",
  ) ++ methods.flatMap(m => Vector(
    s"spark.jobs.$m" -> "count", s"spark.stages.$m" -> "count", s"spark.tasks.$m" -> "count",
    s"spark.task_s.$m" -> "s", s"spark.shuffle_read_mb.$m" -> "MB",
    s"spark.shuffle_write_mb.$m" -> "MB",
  )) ++ Vector(
    "spark.failed_tasks" -> "count", "spark.cached_partitions_peak" -> "count",
    "spark.cached_peak_over_budget" -> "ratio",
    "sim.pred_error" -> "ratio", "sim.plans_over_budget_frac" -> "ratio",
    "trace_overhead" -> "ratio", "failed_frac" -> "ratio",
  )

  def unitOf(name: String): String =
    (endToEnd ++ perLayer).find(_._1 == name).map(_._2)
      .getOrElse(throw new IllegalArgumentException(s"metric $name is not in the catalog"))
}

/** Collects what one run measured, plus its operation count and failures.
  * Failures are counted and named, never retried.
  */
final class Recorder {
  private val values = mutable.LinkedHashMap.empty[String, (Double, Int)]
  private val failureLog = mutable.Buffer.empty[String]
  private val conds = mutable.LinkedHashMap.empty[String, String]
  var attempted = 0L
  /** False once any operation produced a wrong output (MV contents that
    * differ from the reference, or an infeasible plan).
    */
  var outputsCorrect = true

  def put(name: String, value: Double, samples: Int): Unit = {
    Catalog.unitOf(name) // fail fast on a name missing from the catalog
    values(name) = (value, samples)
  }

  /** One attempted operation: `problems` empty means it succeeded. */
  def operation(problems: Seq[String], wrongOutput: Boolean = false): Unit = {
    attempted += 1
    if (wrongOutput) outputsCorrect = false
    if (problems.nonEmpty) {
      failureLog += problems.mkString("; ")
      Console.err.println(s"[perfbench] FAILED: ${failureLog.last}")
    }
  }

  def failed: Long = failureLog.size.toLong
  def failures: Seq[String] = failureLog.toSeq

  def condition(key: String, value: Any): Unit = conds(key) = value.toString
  def conditions: Seq[(String, String)] = conds.toSeq

  /** The catalog's metrics in order; those this run did not measure are 0
    * with 0 samples.
    */
  def metrics(catalog: Vector[(String, String)]): Vector[Metric] = catalog.map { case (n, u) =>
    val (v, k) = values.getOrElse(n, (0.0, 0))
    Metric(n, v, u, k)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Linear-interpolated percentile (0–100) of a non-empty sample. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    val pos = (s.size - 1) * p / 100.0
    val lo = pos.floor.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Runs the tasks round-robin for `seconds`, so the JIT has compiled
    * them before they are timed.
    */
  def warmUp(tasks: Seq[() => Any], seconds: Double): Unit = {
    val t0 = System.nanoTime()
    var i = 0
    while ((System.nanoTime() - t0) / 1e9 < seconds) { tasks(i % tasks.size)(); i += 1 }
  }

  /** Runs `f` and returns its result with the elapsed milliseconds. */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e6)
  }
}

object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.result()
  }

  /** A finite double with all its digits (JSON has no NaN or infinity). */
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not finite")
    d.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
