package repro.sim

import repro.core.{Dag, Plan, Residency}

/** Deterministic timeline simulator of an MV refresh run (§ III-C, Fig 6).
  *
  * Nodes execute sequentially in plan order on the foreground (compute)
  * channel. A flagged node is created in the Memory Catalog and its
  * materialization to storage runs on a background I/O channel in parallel
  * with downstream execution; an unflagged node is written to storage on
  * the critical path. Children read flagged parents from memory and
  * unflagged parents from storage. A flagged node leaves memory once both
  * the node at its [[repro.core.Residency]] release position has executed
  * and its background write has finished (Fig 6, t4).
  */
object Simulator {

  /** Per-node inputs beyond the DAG structure.
    *
    * @param sizes         output bytes of each node (s_i)
    * @param computeMs     pure compute time of each node's statement
    * @param baseReadBytes bytes read from base tables (storage) by each node
    * @param memCreateMs   fixed cost of creating a flagged node in the
    *                      Memory Catalog (the paper's `time(create v_i in
    *                      memory)`; an extra action in the Spark substrate)
    */
  final case class Inputs(sizes: Vector[Long], computeMs: Vector[Double],
                          baseReadBytes: Vector[Long], memCreateMs: Double = 0.0)

  final case class Report(
      endToEndMs: Double,
      tableReadMs: Double,
      computeMs: Double,
      writeMs: Double,
      peakMemoryBytes: Long,
      nodeEndMs: Vector[Double],
  ) {
    /** Table IV's "Query" column: read + compute (writes are reported apart). */
    def queryMs: Double = tableReadMs + computeMs
  }

  def simulate(dag: Dag, plan: Plan, cost: CostModel, in: Inputs): Report = {
    require(dag.isTopological(plan.order), "simulate requires a topological order")
    require(in.sizes.size == dag.n && in.computeMs.size == dag.n && in.baseReadBytes.size == dag.n)
    // Non-negative times keep the foreground clock monotone, so the node at
    // a release position ends no earlier than the released node's other children.
    require(in.computeMs.forall(_ >= 0) && in.memCreateMs >= 0, "times must be non-negative")

    var t = 0.0          // foreground clock
    var bgFree = 0.0     // background materialization channel availability
    val execEnd = Array.ofDim[Double](dag.n)
    val bgEnd = Array.ofDim[Double](dag.n) // flagged-node materialization end
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
        writeTotal += cost.diskWriteMs(in.sizes(i)) // happens, but off critical path
      } else {
        val w = cost.diskWriteMs(in.sizes(i))
        t += read + compute + w
        execEnd(i) = t
        writeTotal += w
      }
    }

    val endToEnd = math.max(t, bgFree)

    // Peak Memory-Catalog bytes over continuous time: a flagged node is
    // resident over [execEnd, residentUntil), residentUntil being the later
    // of its release position's execution end and its own background-write
    // end. One sorted sweep; at equal instants releases come first, so an
    // empty interval never counts.
    val residency = Residency(dag, plan.order)
    val events = plan.flagged.toVector.flatMap { j =>
      val until = math.max(execEnd(plan.order(residency.releaseRank(j))), bgEnd(j))
      Vector((execEnd(j), in.sizes(j)), (until, -in.sizes(j)))
    }.sorted(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long))
    val peak = events.scanLeft(0L)(_ + _._2).max

    Report(endToEnd, readTotal, computeTotal, writeTotal, peak, plan.order.map(execEnd).toVector)
  }
}
