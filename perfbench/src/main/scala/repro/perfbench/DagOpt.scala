package repro.perfbench

import scala.util.Random
import repro.core.{AlternatingOpt, Dag, Plan}
import repro.sim.{CostModel, Simulator}
import repro.workload.DagGen

/** How much of the optimizer workload runs.
  *
  * @param perSize        DAGs per size; DAG k of each size uses DagGen seed k
  *                       (50, seeds 0–49, in the Fig 13 bench)
  * @param minSamples     fewest timed solves in a run
  * @param capDagsPerSize DAGs per size ≤ 50 re-solved at 100× the MKP cap
  */
final case class DagOptSpec(perSize: Int = 50, minSamples: Int = 120, capDagsPerSize: Int = 3)

object DagOpt {
  /** Fig 13's DAG sizes. */
  val Sizes: Vector[Int] = Vector(25, 50, 75, 100)
  /** Fig 13's Memory Catalog budget M: 16 GB against 100 GB-scale tables. */
  val Budget: Long = 16L << 30
}

/** The optimizer alone on generated DAGs (Fig 13's setting): no Spark, no
  * sleeps.
  *
  * The DAG set is fixed, as in the Fig 13 bench, and `--seed` only shuffles
  * the solve order of each pass. DagGen's sizes compound along join chains,
  * so DAG sets drawn from the seed gave plan times and simulated refresh
  * times that spread by 18–29 % between seeds, more than any change worth
  * detecting.
  */
final class DagOpt(spec: DagOptSpec, rec: Recorder) {
  import DagOpt._

  private def generate(): Vector[DagGen.Generated] =
    for (n <- Sizes; k <- (0 until spec.perSize).toVector)
      yield DagGen.generate(DagGen.Params(n, seed = k))

  /** Simulator inputs: roots scan their own output size from storage. */
  private def inputs(g: DagGen.Generated): Simulator.Inputs = {
    val d = g.dag
    Simulator.Inputs(d.nodes.map(_.sizeBytes), g.computeMs,
      (0 until d.n).map(i => if (d.parents(i).isEmpty) d.size(i) else 0L).toVector)
  }

  /** Solves every DAG once per pass, in a shuffled order, whole passes, until
    * `seconds` passed and at least `minSamples` solves were timed. Returns
    * the first pass's plan of each DAG, and each solve's extra result and
    * (DAG index, milliseconds). Each solve counts as an operation and fails
    * if it throws or returns an infeasible plan.
    */
  private def timedPasses[A](dags: Vector[Dag], seconds: Double, rnd: Random)(
      solve: Dag => (Plan, A)): (Vector[Plan], Vector[A], Vector[(Int, Double)]) = {
    val t0 = System.nanoTime()
    val plans = new Array[Plan](dags.size)
    val extra = Vector.newBuilder[A]
    val samples = Vector.newBuilder[(Int, Double)]
    var pass, count = 0
    while (pass == 0 || count < spec.minSamples || (System.nanoTime() - t0) / 1e9 < seconds) {
      rnd.shuffle(dags.indices.toVector).foreach { i =>
        val d = dags(i)
        val ((plan, a), t) = Stats.timed(solve(d))
        val feasible = Plan.isFeasible(d, plan, Budget)
        rec.operation(if (feasible) Nil else Seq(s"dag-opt DAG $i (n=${d.n}): infeasible plan"),
          wrongOutput = !feasible)
        if (pass == 0) plans(i) = plan
        extra += a
        samples += i -> t
        count += 1
      }
      pass += 1
    }
    (plans.toVector, extra.result(), samples.result())
  }

  def run(seed: Long, seconds: Double, trace: Boolean): Unit = {
    val rnd = new Random(seed)
    // Set-up is cheap here, so it is repeated and its median reported. With
    // 5 repetitions the median spread by 18–26 % between runs.
    val genMs = (0 until 11).map(_ => Stats.timed(generate())._2)
    val gens = generate()
    val dags = gens.map(_.dag)
    rec.put("setup_s", Stats.median(genMs) / 1000, genMs.size)
    rec.put("workload.generate_s", Stats.median(genMs) / 1000, genMs.size)
    rec.put("workload.mv_nodes", dags.map(_.n).sum.toDouble, dags.size)
    val (_, warmMs) = Stats.timed(Stats.warmUp(rnd.shuffle(dags).map(d =>
      () => AlternatingOpt.solve(d, Budget)), seconds = 3.0))
    rec.put("workload.warmup_s", warmMs / 1000, 1)
    rec.condition("dags", s"DagGen sizes ${Sizes.mkString(",")} x ${spec.perSize} each, " +
      s"seeds 0..${spec.perSize - 1}; --seed shuffles the solve order")
    rec.condition("memory_catalog", s"M = $Budget B (16 GB)")
    rec.condition("refresh_model", "refresh_s: sum over DAGs of the median solve time plus the " +
      "Simulator time of its plan; noopt_refresh_s: topological-order time plus the Simulator " +
      "time of the no-opt plan; Simulator under CostModel.paperEnvironment")

    val untracedSeconds = if (trace) seconds / 2 else seconds
    val (plans, _, samples) = timedPasses(dags, untracedSeconds, rnd)(d =>
      (AlternatingOpt.solve(d, Budget).plan, ()))
    val ms = samples.map(_._2)
    // Mean per solve, as Fig 13 reports it: solve times cluster by DAG size
    // and by whether the MKP search hits its node cap, so any median sits in
    // a gap between clusters and jumps between runs.
    rec.put("plan_ms", Stats.mean(ms), ms.size)
    rec.put("plan_ms.p90", Stats.percentile(ms, 90), ms.size)
    rec.put("plan_saved_s", dags.zip(plans).map { case (d, p) => p.totalSpeedup(d) }.sum / 1000,
      dags.size)

    // End to end, S/C plans before it refreshes; no-opt only orders.
    val solveMs = samples.groupMap(_._1)(_._2).view.mapValues(Stats.median).toMap
    val cost = CostModel.paperEnvironment
    val sims = gens.indices.map { i =>
      val (g, in) = (gens(i), inputs(gens(i)))
      val (noopt, orderMs) = Stats.timed(Plan(g.dag.topological, Set.empty))
      (solveMs(i) + Simulator.simulate(g.dag, plans(i), cost, in).endToEndMs,
        orderMs + Simulator.simulate(g.dag, noopt, cost, in).endToEndMs)
    }
    rec.put("refresh_s", sims.map(_._1).sum / 1000, sims.size)
    rec.put("noopt_refresh_s", sims.map(_._2).sum / 1000, sims.size)
    rec.put("speedup", Stats.median(sims.map(s => s._2 / s._1)), sims.size)

    if (trace) {
      val (_, solves, _) = timedPasses(dags, seconds / 2, rnd) { d =>
        val s = SolverTrace.solve(d, Budget)
        (s.plan, s)
      }
      SolverTrace.recordSolves(rec, solves)
      SolverTrace.recordPlans(rec, dags.zip(plans), Budget)
      rec.put("trace_overhead", Stats.median(solves.map(_.solveMs)) / Stats.median(ms), solves.size)
      val capped = Sizes.filter(_ <= 50).flatMap { n =>
        dags.zip(plans).filter(_._1.n == n).take(spec.capDagsPerSize)
      }
      val scores = capped.map { case (d, p) => SolverTrace.scoreAtCaps(d, Budget, p.order) }
      rec.put("core.saved_vs_100x_cap", scores.map(_._1).sum / scores.map(_._2).sum, scores.size)
      rec.put("sim.plans_over_budget_frac", SolverTrace.overBudget(
        gens.zip(plans).map { case (g, p) => (g.dag, p, inputs(g)) }, cost, Budget), dags.size)
    }
    rec.put("failed_frac", rec.failed.toDouble / math.max(1L, rec.attempted), rec.attempted.toInt)
  }
}
