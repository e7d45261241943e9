package repro.core

/** How long each node stays in the Memory Catalog under one execution order
  * (§ III-C, Problem 1). This is the one place that states the release rule;
  * [[Plan]], [[Constraints]], `sim.Simulator` and `exec.Controller` all read
  * it from here.
  *
  * A flagged node occupies the Memory Catalog from its own execution until
  * its last child (by execution order) has executed; a childless node
  * occupies it only while it executes. Built in O(n + e).
  *
  * @param order execution order τ as node ids; order(k) runs at position k
  */
final case class Residency(dag: Dag, order: Vector[Int]) {

  /** rank(i) = τ(i): the 0-based execution position of node i. */
  val rank: Vector[Int] = {
    val r = Array.fill(dag.n)(-1)
    order.indices.foreach(k => r(order(k)) = k)
    require(order.size == dag.n && r.forall(_ >= 0), "order must be a permutation of the nodes")
    r.toVector
  }

  /** releaseRank(j): the last position at which j is resident — the largest
    * position of any child of j, or j's own position when it has no children.
    */
  val releaseRank: Vector[Int] = Vector.tabulate(dag.n) { j =>
    val kids = dag.children(j)
    if (kids.isEmpty) rank(j) else kids.map(rank).max
  }

  /** releasedAt(k): the nodes whose release position is k, i.e. those freed
    * once the node at position k has executed; ascending ids.
    */
  val releasedAt: Vector[Vector[Int]] = {
    val b = Vector.fill(dag.n)(Vector.newBuilder[Int])
    (0 until dag.n).foreach(j => b(releaseRank(j)) += j)
    b.map(_.result())
  }

  /** One pass over the positions: `enter` takes each member as it executes,
    * `leave` each member once its release position has executed. Element k
    * is the state while the node at position k executes.
    */
  private def sweep[A](zero: A, member: Int => Boolean)(
      enter: (A, Int) => A, leave: (A, Int) => A): Vector[A] = {
    var state = zero
    order.indices.map { k =>
      if (member(order(k))) state = enter(state, order(k))
      val during = state
      releasedAt(k).foreach(j => if (member(j)) state = leave(state, j))
      during
    }.toVector
  }

  /** The members resident while each position executes; length n. */
  def residentSets(member: Int => Boolean): Vector[Set[Int]] =
    sweep(Set.empty[Int], member)(_ + _, _ - _)

  /** Bytes of the flagged nodes resident while each position executes; length n. */
  def usageTimeline(flagged: Int => Boolean): Vector[Long] =
    sweep(0L, flagged)(_ + dag.size(_), _ - dag.size(_))

  /** Peak Memory-Catalog bytes of the flagged nodes (the S/C Opt constraint). */
  def peak(flagged: Int => Boolean): Long = usageTimeline(flagged).foldLeft(0L)(math.max)
}
