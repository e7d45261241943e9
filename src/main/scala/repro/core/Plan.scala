package repro.core

/** A refresh plan: an execution order τ plus the flagged set U (§ IV).
  *
  * @param order   execution order as a sequence of node ids; order(k) is the
  *                (k+1)-th node to execute. (The paper's τ maps node → rank;
  *                [[Residency.rank]] recovers that view.)
  * @param flagged U — the nodes whose outputs are kept in the Memory Catalog
  */
final case class Plan(order: Vector[Int], flagged: Set[Int]) {
  def totalSpeedup(dag: Dag): Double = flagged.toSeq.map(dag.speedup).sum
  def totalFlaggedBytes(dag: Dag): Long = flagged.toSeq.map(dag.size).sum
}

/** Memory-occupancy measures of a plan (§ IV), under the release rule of
  * [[Residency]].
  */
object Plan {

  /** Peak Memory-Catalog usage of the plan (the S/C Opt constraint). */
  def peakMemoryUsage(dag: Dag, plan: Plan): Long =
    Residency(dag, plan.order).peak(plan.flagged)

  /** Average memory usage — the objective of Problem 3 (S/C Opt Order):
    * (1/n) Σ_{v_i ∈ U} (max_{(v_i,v_j)∈E} τ(j) − τ(i)) · s_i,
    * i.e. the mean resident-byte count over the run assuming unit job times.
    */
  def averageMemoryUsage(dag: Dag, plan: Plan): Double = {
    if (dag.n == 0) return 0.0
    val r = Residency(dag, plan.order)
    plan.flagged.toSeq.map { i =>
      (r.releaseRank(i) - r.rank(i)).toDouble * dag.size(i)
    }.sum / dag.n
  }

  /** True iff the plan's order is topological and peak memory ≤ budget. */
  def isFeasible(dag: Dag, plan: Plan, memoryBudget: Long): Boolean =
    dag.isTopological(plan.order) && peakMemoryUsage(dag, plan) <= memoryBudget
}
