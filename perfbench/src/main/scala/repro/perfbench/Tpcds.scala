package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import java.util.Comparator
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, count, lit, sum, xxhash64}
import repro.core.{AlternatingOpt, Dag, Plan}
import repro.exec.{Controller, ExecConfig, NfsModel, RunReport}
import repro.sim.Simulator
import repro.workload.{Dataset, Metadata, TpcDsLite, Workload, Workloads}

/** A TPC-DS-lite refresh workload: the DAG refreshed and the dataset scale.
  *
  * @param sleep false keeps the modeled storage for planning but skips its
  *              sleeps (smoke test)
  */
final case class TpcdsSpec(workload: Workload, sf: Double, sleep: Boolean = true)

/** A calibrated DAG with its plan and its no-opt output reference. */
private final case class Calibrated(w: Workload, cal: Metadata.Calibration, dag: Dag, plan: Plan,
                                    reference: Map[String, (Long, BigDecimal)])

/** What set-up leaves for the measurement. */
private final case class Setup(ds: Dataset, nfs: NfsModel, budget: Long, c: Calibrated)

object Tpcds {
  /** Modeled NFS cost of one full-dataset scan. */
  val ScanSeconds = 2.0
  /** Memory Catalog budget: the paper's 1.6 % label times the bench suites'
    * regime factor 8, which maps TPC-DS-lite's relatively larger
    * intermediates onto the paper's catalog:intermediate regime.
    */
  val BudgetPct: Double = 1.6 * 8
  /** How long a refresh's persisted RDDs may outlive it before they count
    * as left behind. Under host load the program's asynchronous release
    * took longer than 2 s.
    */
  val LeakGraceMs = 10000L
  /** Fresh JVMs that time solves of the calibrated DAG; the median JVM counts. */
  val SolverJvms = 3
}

/** The optimizer alone on one calibrated TPC-DS DAG, in a fresh JVM: builds
  * the DAG with `Metadata.dag`, runs `AlternatingOpt.solve` on it for
  * `WarmUpSeconds`, then times `Solves` more solves and prints their mean
  * and 90th percentile in milliseconds. A solve is timed by the CPU time of
  * its thread, so time the thread spends descheduled does not count: a
  * solve lasts about 0.25 ms, and wall times of whole runs moved by up to
  * 30 % with the host's load.
  *
  *   SolveLoop <workload key> <dataset bytes> <budget bytes> <mv>=<bytes>...
  */
object SolveLoop {
  val WarmUpSeconds = 1.0
  val Solves = 4000

  def main(args: Array[String]): Unit = {
    val w = Workloads.all.find(_.key == args(0)).getOrElse(sys.error(s"no workload ${args(0)}"))
    val sizes = args.drop(3).map { a =>
      val Array(k, v) = a.split('=')
      k -> v.toLong
    }.toMap
    val dag = Metadata.dag(w, sizes, NfsModel.scaledTo(args(1).toLong, Tpcds.ScanSeconds))
    val budget = args(2).toLong
    Stats.warmUp(Seq(() => AlternatingOpt.solve(dag, budget)), WarmUpSeconds)
    val cpu = java.lang.management.ManagementFactory.getThreadMXBean
    val ms = Vector.fill(Solves) {
      val t0 = cpu.getCurrentThreadCpuTime
      AlternatingOpt.solve(dag, budget)
      (cpu.getCurrentThreadCpuTime - t0) / 1e6
    }
    println(s"${Stats.mean(ms)} ${Stats.percentile(ms, 90)}")
  }
}

/** Runs a TPC-DS-lite workload through the program's public pipeline:
  * `TpcDsLite.generate` → warm-up refresh → `Metadata.calibrate` →
  * `Metadata.dag` → `AlternatingOpt.solve` → `Controller.run`, with every
  * refresh a closed loop that ends when all MVs are on storage.
  */
final class Tpcds(spark: SparkSession, spec: TpcdsSpec, workDir: Path, rec: Recorder) {
  import Tpcds._

  private var refreshes = 0

  private def freshDir(): Path = {
    refreshes += 1
    workDir.resolve(s"refresh-$refreshes")
  }

  private def delete(p: Path): Unit = if (Files.exists(p)) {
    val s = Files.walk(p)
    try s.sorted(Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f))
    finally s.close()
  }

  /** Row count and an order-insensitive checksum (sum of row hashes) of
    * every MV's output, in one Spark job.
    */
  private def checksums(w: Workload, out: Path): Map[String, (Long, BigDecimal)] =
    w.mvs.map { mv =>
      val df = spark.read.parquet(out.resolve(mv.name).toString)
      df.agg(lit(mv.name), count(lit(1)),
        sum(xxhash64(df.columns.map(col).toIndexedSeq: _*).cast("decimal(38,0)")))
    }.reduce(_ union _).collect().map { row =>
      val sumHash = if (row.isNullAt(2)) BigDecimal(0) else BigDecimal(row.getDecimal(2))
      row.getString(0) -> (row.getLong(1), sumHash)
    }.toMap

  /** Mean and 90th percentile of warm solves of the calibrated DAG, from
    * `SolveLoop` in each of `SolverJvms` fresh JVMs. How the JIT compiles
    * the solver differs from JVM to JVM, and the mean of a 19-node DAG's
    * warm solves ranged over 0.15–0.4 ms in this benchmark's own JVM, which
    * Spark shares.
    */
  private def solverJvms(ds: Dataset, budget: Long, sizes: Map[String, Long]): Vector[(Double, Double)] =
    Vector.fill(SolverJvms) {
      val java = Paths.get(System.getProperty("java.home"), "bin", "java").toString
      val cmd = Seq(java, "-Xmx256m", "-XX:-UsePerfData", "-cp", System.getProperty("java.class.path"),
        SolveLoop.getClass.getName.stripSuffix("$"), spec.workload.key, ds.totalBytes.toString,
        budget.toString) ++ sizes.map { case (k, v) => s"$k=$v" }
      val p = new ProcessBuilder(cmd: _*).redirectErrorStream(true).start()
      val out = try new String(p.getInputStream.readAllBytes(), "UTF-8") finally p.waitFor()
      require(p.exitValue == 0, s"solver JVM failed: $out")
      val Array(mean, p90) = out.trim.split(' ').map(_.toDouble)
      (mean, p90)
    }

  /** Ids of the RDDs Spark holds as persisted. */
  private def persisted: Set[Int] = spark.sparkContext.getPersistentRDDs.keySet.toSet

  /** Checked refreshes, and those that returned while an RDD was still
    * persisted (the program released it shortly after, asynchronously).
    */
  private var checkedRefreshes, persistedAtReturn = 0

  /** Checks one finished refresh. Wrong outputs: MVs whose row count or
    * checksum differ from the no-opt reference. Other problems: a catalog
    * peak above M, and RDDs still persisted once the refresh returned and
    * the program's own asynchronous unpersists had `LeakGraceMs` to finish.
    */
  private def problems(c: Calibrated, r: RunReport, out: Path,
                       budget: Long): (Seq[String], Seq[String]) = {
    val atReturn = persisted
    checkedRefreshes += 1
    if (atReturn.nonEmpty) persistedAtReturn += 1
    val wrong =
      try {
        val got = checksums(c.w, out)
        c.w.mvs.map(_.name).filter(n => got(n) != c.reference(n)).map { n =>
          s"${r.method} ${c.w.key}/$n: (rows, checksum) ${got(n)} != reference ${c.reference(n)}"
        }
      } catch {
        case NonFatal(e) => Seq(s"${r.method} ${c.w.key}: outputs unreadable: $e")
      }
    val peak = if (r.peakCatalogBytes <= budget) Nil
      else Seq(s"${r.method} ${c.w.key}: peak catalog ${r.peakCatalogBytes} B > M = $budget B")
    val deadline = System.nanoTime() + LeakGraceMs * 1000000L
    while (atReturn.intersect(persisted).nonEmpty && System.nanoTime() < deadline) Thread.sleep(50)
    val left = atReturn.intersect(persisted)
    val leaked = if (left.isEmpty) Nil else Seq(s"${r.method} ${c.w.key}: ${left.size} persisted " +
      s"RDDs (ids ${left.mkString(", ")}) left behind $LeakGraceMs ms after the refresh")
    (wrong, peak ++ leaked)
  }

  /** One checked refresh in a fresh output directory, deleted afterwards.
    * `corrupt` names an MV whose output loses a row before the check (smoke
    * test of the check itself). A refresh that completed is returned even
    * when its checks failed (the failure is counted); None if it threw.
    */
  private def refresh(c: Calibrated, s: Setup, sc: Boolean,
                      corrupt: Option[String] = None): Option[RunReport] = {
    val out = freshDir()
    System.gc() // start every timed refresh from the same heap state
    try {
      val ctl = new Controller(spark, s.ds, ExecConfig(s.budget, Some(s.nfs).filter(_ => spec.sleep), out))
      val r = if (sc) ctl.run(c.w, c.plan, c.cal.sizes) else ctl.runBaseline(c.w, c.cal.sizes)
      corrupt.foreach { mv =>
        val (p, tmp) = (out.resolve(mv), out.resolve(s"$mv.corrupt"))
        val df = spark.read.parquet(p.toString)
        df.limit(math.max(0L, df.count() - 1).toInt).write.parquet(tmp.toString)
        delete(p)
        Files.move(tmp, p)
      }
      val (wrong, other) = problems(c, r, out, s.budget)
      rec.operation(wrong ++ other, wrongOutput = wrong.nonEmpty)
      Some(r)
    } catch {
      case NonFatal(e) =>
        rec.operation(Seq(s"${if (sc) "sc" else "no-opt"} ${c.w.key} threw: $e"))
        None
    } finally delete(out)
  }

  /** Set-up: data generation, one warm-up no-opt refresh (without sleeps:
    * it only warms the JVM and Spark), calibration and planning. The S/C
    * path gets no warm-up, for lack of time: a cold first S/C refresh took
    * 15–50 % longer than the next two in the same JVM, and a warm-up S/C
    * refresh would add about 31 s to every run.
    */
  private def setup(): Setup = {
    val (ds, genMs) = Stats.timed(TpcDsLite.generate(spark, workDir.resolve("data"), spec.sf,
      partitioned = false))
    val nfs = NfsModel.scaledTo(ds.totalBytes, ScanSeconds)
    val budget = (ds.totalBytes * BudgetPct / 100.0).toLong
    val w = spec.workload
    val (_, warmMs) = Stats.timed {
      val out = freshDir()
      try new Controller(spark, ds, ExecConfig(0L, None, out)).runBaseline(w)
      finally delete(out)
    }
    val out = freshDir()
    val (c, calMs, planMs) = try {
      // The calibration is a warm, closed-loop no-opt refresh with the
      // modeled storage; it doubles as the no-opt measurement, as in the
      // bench suites.
      val cfg = ExecConfig(0L, Some(nfs).filter(_ => spec.sleep), out)
      System.gc() // as before every timed refresh
      val (cal, ms) = Stats.timed(Metadata.calibrate(spark, ds, w, cfg))
      val ((dag, plan), pms) = Stats.timed {
        val d = Metadata.dag(w, cal.sizes, nfs)
        (d, AlternatingOpt.solve(d, budget).plan)
      }
      val feasible = Plan.isFeasible(dag, plan, budget)
      rec.operation(if (feasible) Nil else Seq(s"plan for ${w.key} is infeasible"),
        wrongOutput = !feasible)
      (Calibrated(w, cal, dag, plan, checksums(w, out)), ms, pms)
    } finally delete(out)
    rec.put("setup_s", (genMs + warmMs + calMs + planMs) / 1000, 1)
    rec.put("workload.generate_s", genMs / 1000, 1)
    rec.put("workload.warmup_s", warmMs / 1000, 1)
    rec.put("workload.calibrate_s", calMs / 1000, 1)
    rec.put("workload.dataset_mb", ds.totalBytes / 1e6, 1)
    rec.put("workload.mv_nodes", w.mvs.size.toDouble, 1)
    rec.condition("dataset", s"TPC-DS-lite SF ${spec.sf}, ${ds.totalBytes} B; its generator " +
      "uses fixed internal seeds, so --seed does not change this workload")
    rec.condition("dag", s"${w.title} (${w.mvs.size} nodes)")
    rec.condition("modeled_storage", s"NfsModel.scaledTo(dataset, $ScanSeconds s full scan)" +
      (if (spec.sleep) "" else ", sleeps off"))
    rec.condition("memory_catalog",
      f"M = $budget B = $BudgetPct%.1f %% of dataset bytes (paper label 1.6 %% x 8)")
    rec.condition("io_ratio", f"${c.cal.ioRatio}%.3f")
    Setup(ds, nfs, budget, c)
  }

  def run(seconds: Double, trace: Boolean): Unit = {
    val s = setup()
    val c = s.c
    val noopt = c.cal.report.endToEndMs / 1000
    if (trace) traced(s, noopt)
    else {
      // Timed in fresh JVMs: the planning step inside this one runs once,
      // cold, and spread by 19–34 % between runs. They run while this JVM
      // is idle after set-up; right after the S/C refresh they spread twice
      // as much between runs. The median JVM drops one that the host's load
      // or the JIT slowed.
      val solves = solverJvms(s.ds, s.budget, c.cal.sizes)
      rec.put("plan_ms", Stats.median(solves.map(_._1)), SolverJvms * SolveLoop.Solves)
      rec.put("plan_ms.p90", Stats.median(solves.map(_._2)), SolverJvms * SolveLoop.Solves)
      // S/C refreshes follow back to back until `seconds` have passed, at
      // least one.
      val t0 = System.nanoTime()
      val sc = Vector.newBuilder[Double]
      var i = 0
      while (i == 0 || (System.nanoTime() - t0) / 1e9 < seconds) {
        refresh(c, s, sc = true).foreach(r => sc += r.endToEndMs / 1000)
        i += 1
      }
      val measured = sc.result()
      require(measured.nonEmpty, s"no S/C refresh completed: ${rec.failures.mkString("; ")}")
      rec.put("refresh_s", Stats.median(measured), measured.size)
      rec.put("noopt_refresh_s", noopt, 1)
      rec.put("speedup", noopt / Stats.median(measured), measured.size)
    }
    rec.put("plan_saved_s", c.plan.totalSpeedup(c.dag) / 1000, 1)
    rec.put("exec.persisted_at_return", persistedAtReturn, checkedRefreshes)
    rec.put("failed_frac", rec.failed.toDouble / math.max(1L, rec.attempted), rec.attempted.toInt)
  }

  /** Traced run: a no-opt/S/C pair with the Spark listener attached,
    * traced solves, and the simulator's prediction for the plan. The
    * untraced no-opt calibration (`noopt` seconds) gives `trace_overhead`.
    */
  private def traced(s: Setup, noopt: Double): Unit = {
    val (c, budget) = (s.c, s.budget)
    val listener = new SparkTrace(spark.sparkContext)
    val Vector((no, noCounts), (sc, scCounts)) = try {
      Vector(false, true).map { isSc =>
        listener.reset()
        val r = refresh(c, s, isSc)
        (r.getOrElse(sys.error(s"traced refresh failed: ${rec.failures.mkString("; ")}")),
          listener.snapshot())
      }
    } finally listener.detach()

    Vector("noopt" -> no, "sc" -> sc).foreach { case (m, r) =>
      rec.put(s"exec.read_model_s.$m", r.tableReadMs / 1000, 1)
      rec.put(s"exec.compute_s.$m", r.computeMs / 1000, 1)
      rec.put(s"exec.write_fg_s.$m", r.writeForegroundMs / 1000, 1)
      rec.put(s"exec.write_bg_s.$m", r.writeBackgroundMs / 1000, 1)
      rec.put(s"exec.tail_s.$m",
        (r.endToEndMs - r.tableReadMs - r.computeMs - r.writeForegroundMs) / 1000, 1)
    }
    // Parent reads served by the Memory Catalog, weighted by their modeled
    // read time: the Controller charges a storage read for every parent it
    // does not find in the catalog, and the no-opt run, with an empty
    // catalog and the same sizes, charges every parent read.
    val missMs = sc.nodes.map(_.parentReadMs).sum
    val allMs = no.nodes.map(_.parentReadMs).sum
    if (allMs > 0)
      rec.put("exec.catalog_hit_frac", 1 - missMs / allMs, c.w.mvs.map(_.parents.size).sum)
    val withFlaggedParent =
      c.w.mvs.filter(_.parents.exists(p => c.plan.flagged(c.w.index(p)))).map(_.name)
    rec.put("exec.flagged_child_exec_ratio",
      withFlaggedParent.map(sc.execMsByName).sum /
        math.max(1e-9, withFlaggedParent.map(no.execMsByName).sum),
      withFlaggedParent.size)

    Vector("noopt" -> noCounts, "sc" -> scCounts).foreach { case (m, k) =>
      rec.put(s"spark.jobs.$m", k.jobs.toDouble, 1)
      rec.put(s"spark.stages.$m", k.stages.toDouble, 1)
      rec.put(s"spark.tasks.$m", k.tasks.toDouble, 1)
      rec.put(s"spark.task_s.$m", k.taskMs / 1000.0, 1)
      rec.put(s"spark.shuffle_read_mb.$m", k.shuffleReadBytes / 1e6, 1)
      rec.put(s"spark.shuffle_write_mb.$m", k.shuffleWriteBytes / 1e6, 1)
    }
    rec.put("spark.failed_tasks", (noCounts.failedTasks + scCounts.failedTasks).toDouble, 2)
    rec.put("spark.cached_partitions_peak", scCounts.cachedPartitionsPeak.toDouble, 1)
    rec.put("spark.cached_peak_over_budget", scCounts.cachedBytesPeak.toDouble / budget, 1)

    SolverTrace.recordSolves(rec, (0 until 20).map(_ => SolverTrace.solve(c.dag, budget)))
    SolverTrace.recordPlans(rec, Seq((c.dag, c.plan)), budget)
    if (c.dag.n <= 50) {
      val (atCap, at100x) = SolverTrace.scoreAtCaps(c.dag, budget, c.plan.order)
      rec.put("core.saved_vs_100x_cap", atCap / at100x, 1)
    }

    val cost = s.nfs.toCostModel()
    val in = Simulator.Inputs(
      sizes = c.w.mvs.map(m => c.cal.sizes(m.name)),
      computeMs = c.w.mvs.map(m => c.cal.report.execMsByName(m.name)),
      baseReadBytes = c.w.mvs.map(m =>
        m.baseTables.map(t => s.ds.effectiveReadBytes(t, m.partitionYears.get(t))).sum))
    rec.put("sim.pred_error",
      math.abs(Simulator.simulate(c.dag, c.plan, cost, in).endToEndMs - sc.endToEndMs) /
        sc.endToEndMs, 1)
    rec.put("sim.plans_over_budget_frac",
      SolverTrace.overBudget(Seq((c.dag, c.plan, in)), cost, budget), 1)
    rec.put("trace_overhead", no.endToEndMs / 1000 / noopt, 1)
  }

  /** Smoke test of the output check: one S/C refresh whose output for `mv`
    * is damaged before the check, which must count it as failed.
    */
  def runCorrupted(mv: String): Unit = {
    val s = setup()
    require(s.c.w.byName.contains(mv), s"${s.c.w.key} has no MV $mv")
    refresh(s.c, s, sc = true, corrupt = Some(mv))
    rec.put("failed_frac", rec.failed.toDouble / math.max(1L, rec.attempted), rec.attempted.toInt)
  }
}
