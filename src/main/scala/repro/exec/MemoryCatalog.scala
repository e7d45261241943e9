package repro.exec

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable

/** The bounded Memory Catalog (§ III-B): flagged node outputs live here as
  * memory-persisted DataFrames until the caller releases them; the
  * controller does so at the release position given by [[repro.core.Residency]].
  *
  * Accounting uses the calibrated on-disk sizes — the same numbers the
  * optimizer reasoned with — and is asserted against the budget on every
  * insertion, so an infeasible plan fails loudly rather than silently
  * exceeding the bound.
  */
final class MemoryCatalog(val budgetBytes: Long) {
  private final case class Entry(df: DataFrame, bytes: Long)
  private val entries = mutable.LinkedHashMap.empty[String, Entry]
  private var used = 0L
  private var peak = 0L

  def usedBytes: Long = used
  def peakBytes: Long = peak
  def contains(name: String): Boolean = entries.contains(name)
  def dataFrame(name: String): DataFrame = entries(name).df
  def names: Seq[String] = entries.keys.toSeq

  /** Create `df` in the catalog: persist in memory and force materialization.
    * Returns the materialized row count.
    */
  def put(name: String, df: DataFrame, bytes: Long): Long = {
    require(!entries.contains(name), s"$name already in Memory Catalog")
    require(used + bytes <= budgetBytes,
      s"Memory Catalog overflow: $name ($bytes B) on top of $used B exceeds $budgetBytes B")
    df.persist(StorageLevel.MEMORY_ONLY)
    val rows = df.count()
    entries(name) = Entry(df, bytes)
    used += bytes
    peak = math.max(peak, used)
    rows
  }

  /** Release accounting for `name`. The physical unpersist may be deferred
    * by the caller until the node's background materialization finished
    * (Fig 6, t4).
    */
  def release(name: String): DataFrame = {
    val e = entries.remove(name).getOrElse(
      throw new NoSuchElementException(s"$name not in Memory Catalog"))
    used -= e.bytes
    e.df
  }

  /** Unpersist and drop everything still resident. */
  def clear(): Unit = {
    entries.values.foreach(_.df.unpersist(false))
    entries.clear()
    used = 0
  }
}
