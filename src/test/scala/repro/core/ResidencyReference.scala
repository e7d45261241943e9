package repro.core

/** The original quadratic definitions of residency, which rescan every node
  * at every position. [[Residency]] computes the same in one pass; tests
  * compare the two.
  */
object ResidencyReference {

  private def rank(order: Vector[Int]): Map[Int, Int] = order.zipWithIndex.toMap

  /** Last execution position at which flagged j is still held. */
  def releaseRank(dag: Dag, order: Vector[Int], j: Int): Int = {
    val r = rank(order)
    val kids = dag.children(j)
    if (kids.isEmpty) r(j) else kids.map(r).max
  }

  /** Flagged nodes resident in memory while the node at position k executes. */
  def residentAt(dag: Dag, plan: Plan, k: Int): Set[Int] = {
    val r = rank(plan.order)
    plan.flagged.filter(j => r(j) <= k && k <= releaseRank(dag, plan.order, j))
  }

  def usageTimeline(dag: Dag, plan: Plan): Vector[Long] =
    (0 until dag.n).map(k => residentAt(dag, plan, k).toSeq.map(dag.size).sum).toVector

  def averageMemoryUsage(dag: Dag, plan: Plan): Double = {
    if (dag.n == 0) return 0.0
    val r = rank(plan.order)
    plan.flagged.toSeq.map { i =>
      (releaseRank(dag, plan.order, i) - r(i)).toDouble * dag.size(i)
    }.sum / dag.n
  }

  def aliveSets(dag: Dag, order: Vector[Int], exclude: Set[Int]): Vector[Set[Int]] = {
    val pos = rank(order)
    val rel = (0 until dag.n).map(releaseRank(dag, order, _))
    (0 until dag.n).map { k =>
      (0 until dag.n).filter(j => !exclude(j) && pos(j) <= k && k <= rel(j)).toSet
    }.toVector
  }

  def constraintSets(dag: Dag, order: Vector[Int], memoryBudget: Long): Vector[Set[Int]] = {
    val exclude  = Constraints.excluded(dag, memoryBudget)
    val distinct = aliveSets(dag, order, exclude).distinct.filter(_.nonEmpty)
    val maximal  = distinct.filterNot(s => distinct.exists(o => s != o && s.subsetOf(o)))
    maximal.filter(_.toSeq.map(dag.size).sum > memoryBudget)
  }

  /** One comparison input: a DAG, an execution order, a flag set, an
    * exclusion set and two Memory Catalog budgets.
    */
  final case class Case(label: String, dag: Dag, order: Vector[Int],
                        flagged: Set[Int], exclude: Set[Int]) {
    def budgets: Seq[Long] = {
      val total = dag.nodes.map(_.sizeBytes).sum
      Seq(total / 8, total / 3)
    }
  }

  /** Small `BruteForce` DAGs and Fig 13-sized `DagGen` DAGs, each under its
    * Kahn order and under an MA-DFS order, with random flags and exclusions.
    */
  lazy val cases: Seq[Case] = {
    val dags =
      (0 until 20).map(s => s"random8/$s" -> BruteForce.randomDag(8, s)) ++
      (for (n <- Seq(25, 50, 100); s <- 0 until 10)
        yield s"daggen$n/$s" -> repro.workload.DagGen.generate(
          repro.workload.DagGen.Params(n, seed = s)).dag)
    dags.zipWithIndex.flatMap { case ((name, d), i) =>
      val rnd = new scala.util.Random(i)
      def subset(): Set[Int] = (0 until d.n).filter(_ => rnd.nextInt(3) == 0).toSet
      val madfs = MaDfs.order(d, subset())
      Seq("kahn" -> d.topological, "madfs" -> madfs).map { case (on, o) =>
        Case(s"$name/$on", d, o, subset(), subset())
      }
    }
  }
}
