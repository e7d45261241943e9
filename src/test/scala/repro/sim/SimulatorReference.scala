package repro.sim

import repro.core.{Dag, Plan}

/** The original timeline simulator, which finds each flagged node's end of
  * residency by folding over its children and samples the continuous-time
  * peak at every event by rescanning all flagged nodes. Tests compare
  * [[Simulator]] against it.
  */
object SimulatorReference {

  def simulate(dag: Dag, plan: Plan, cost: CostModel, in: Simulator.Inputs): Simulator.Report = {
    val rank = plan.order.zipWithIndex.toMap
    var t = 0.0
    var bgFree = 0.0
    val execEnd = Array.ofDim[Double](dag.n)
    val bgEnd = Array.ofDim[Double](dag.n)
    var readTotal, computeTotal, writeTotal = 0.0

    plan.order.foreach { i =>
      val parentRead = dag.parents(i).map { p =>
        if (plan.flagged(p)) cost.memReadMs(in.sizes(p)) else cost.diskReadMs(in.sizes(p))
      }.sum
      val baseRead = if (in.baseReadBytes(i) > 0) cost.diskReadMs(in.baseReadBytes(i)) else 0.0
      val read = parentRead + baseRead
      val compute = in.computeMs(i)
      readTotal += read
      computeTotal += compute
      if (plan.flagged(i)) {
        val createMem = cost.memWriteMs(in.sizes(i)) + in.memCreateMs
        t += read + compute + createMem
        execEnd(i) = t
        val start = math.max(t, bgFree)
        bgFree = start + cost.diskWriteMs(in.sizes(i))
        bgEnd(i) = bgFree
        writeTotal += cost.diskWriteMs(in.sizes(i))
      } else {
        val w = cost.diskWriteMs(in.sizes(i))
        t += read + compute + w
        execEnd(i) = t
        writeTotal += w
      }
    }

    val endToEnd = math.max(t, bgFree)
    val flagged = plan.flagged.toVector.sortBy(rank)
    val residentUntil = flagged.map { j =>
      val lastChild = dag.children(j).map(execEnd).foldLeft(0.0)(math.max)
      j -> math.max(math.max(lastChild, bgEnd(j)), execEnd(j))
    }.toMap
    val events = (flagged.map(execEnd(_)) ++ flagged.map(residentUntil)).distinct.sorted
    val peak = events.map { e =>
      flagged.filter(j => execEnd(j) <= e && e < residentUntil(j)).map(in.sizes(_)).sum
    }.foldLeft(0L)(math.max)

    Simulator.Report(endToEnd, readTotal, computeTotal, writeTotal, peak,
      plan.order.map(execEnd).toVector)
  }
}
