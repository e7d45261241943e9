package repro.perfbench

import scala.collection.mutable
import repro.core.{AlternatingOpt, Constraints, Dag, MkpSolver, Plan}
import repro.sim.{CostModel, Simulator}

/** One traced `AlternatingOpt.solve`: the program's own solvers, each wrapped
  * in a timer, plus a replay of the constraint building on the orders the
  * node selector saw.
  */
final case class TracedSolve(plan: Plan, solveMs: Double, iterations: Int,
                             nodesMs: Double, orderMs: Double, constraintsMs: Double,
                             peakCheckMs: Double, aliveRows: Double, constraintRows: Double)

object SolverTrace {

  def solve(dag: Dag, budget: Long): TracedSolve = {
    val sc = AlternatingOpt.scSolvers
    val orders = mutable.Buffer.empty[Vector[Int]]
    var nodesMs, orderMs = 0.0
    val solvers = AlternatingOpt.Solvers(
      nodes = (d, m, o) => {
        orders += o
        val (u, ms) = Stats.timed(sc.nodes(d, m, o)); nodesMs += ms; u
      },
      order = (d, u) => {
        val (o, ms) = Stats.timed(sc.order(d, u)); orderMs += ms; o
      },
    )
    val (res, solveMs) = Stats.timed(AlternatingOpt.solve(dag, budget, solvers))
    // Replayed outside the timed solve, so the wrappers stay thin.
    val exclude = Constraints.excluded(dag, budget)
    val rows = orders.toVector.map { o =>
      val (sets, ms) = Stats.timed(Constraints.constraintSets(dag, o, budget))
      val alive = Constraints.aliveSets(dag, o, exclude).distinct.count(_.nonEmpty)
      (ms, alive.toDouble, sets.size.toDouble)
    }
    val (_, peakMs) = Stats.timed(Plan.peakMemoryUsage(dag, res.plan))
    TracedSolve(res.plan, solveMs, res.iterations, nodesMs, orderMs, rows.map(_._1).sum, peakMs,
      Stats.mean(rows.map(_._2)), Stats.mean(rows.map(_._3)))
  }

  /** Plan score (Σ t_v over flagged nodes) with the MKP of the plan's final
    * order solved at `MkpSolver`'s default node cap, and at 100× that cap.
    * Rebuilds the knapsack exactly as `SimplifiedMkp.solve` does.
    */
  def scoreAtCaps(dag: Dag, budget: Long, order: Vector[Int]): (Double, Double) = {
    val exclude = Constraints.excluded(dag, budget)
    val sets = Constraints.constraintSets(dag, order, budget)
    val vMkp = sets.flatten.distinct.sorted
    val inMkp = vMkp.toSet
    val profits = vMkp.map(dag.speedup).toVector
    val weights = sets.map(s => vMkp.map(j => if (s(j)) dag.size(j) else 0L).toVector)
    val caps = Vector.fill(sets.size)(budget)
    val free = (0 until dag.n).filter(i => !inMkp(i) && !exclude(i)).map(dag.speedup).sum
    // The solver's default `maxNodes` argument, read from the program.
    val defaultCap = MkpSolver.solve$default$4
    def score(cap: Long): Double =
      free + MkpSolver.solve(profits, weights, caps, cap).toSeq.map(profits(_)).sum
    (score(defaultCap), score(defaultCap * 100))
  }

  /** Share of plans whose continuous-time simulated Memory Catalog peak
    * exceeds the budget.
    */
  def overBudget(cases: Seq[(Dag, Plan, Simulator.Inputs)], cost: CostModel, budget: Long): Double =
    cases.count { case (d, p, in) => Simulator.simulate(d, p, cost, in).peakMemoryBytes > budget }
      .toDouble / math.max(1, cases.size)

  /** Core per-layer timings and row counts from a set of traced solves. */
  def recordSolves(rec: Recorder, solves: Seq[TracedSolve]): Unit = {
    val k = solves.size
    rec.put("core.solve_ms", Stats.median(solves.map(_.solveMs)), k)
    rec.put("core.iterations", Stats.mean(solves.map(_.iterations.toDouble)), k)
    rec.put("core.constraints_ms", Stats.median(solves.map(_.constraintsMs)), k)
    rec.put("core.mkp_ms", Stats.median(solves.map(_.nodesMs)), k)
    rec.put("core.madfs_ms", Stats.median(solves.map(_.orderMs)), k)
    rec.put("core.peak_check_ms", Stats.median(solves.map(_.peakCheckMs)), k)
    rec.put("core.alive_rows", Stats.mean(solves.map(_.aliveRows)), k)
    rec.put("core.constraint_rows", Stats.mean(solves.map(_.constraintRows)), k)
  }

  /** Core per-layer plan shape, one entry per distinct DAG. */
  def recordPlans(rec: Recorder, plans: Seq[(Dag, Plan)], budget: Long): Unit = {
    val k = plans.size
    rec.put("core.flagged_nodes", Stats.mean(plans.map(_._2.flagged.size.toDouble)), k)
    rec.put("core.flagged_bytes_over_budget",
      Stats.mean(plans.map { case (d, p) => p.totalFlaggedBytes(d).toDouble / budget }), k)
    rec.put("core.candidate_bytes_over_budget", Stats.mean(plans.map { case (d, _) =>
      val ex = Constraints.excluded(d, budget)
      (0 until d.n).filterNot(ex).map(d.size).sum.toDouble / budget
    }), k)
  }
}
