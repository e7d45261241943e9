package repro.perfbench

import scala.collection.mutable
import org.apache.spark.{ListenerBusDrain, SparkContext, Success}
import org.apache.spark.scheduler._
import org.apache.spark.storage.RDDBlockId

/** What the Spark engine did during one window of work (one refresh). */
final case class SparkCounts(jobs: Long, stages: Long, tasks: Long, failedTasks: Long,
                             taskMs: Long, shuffleReadBytes: Long, shuffleWriteBytes: Long,
                             cachedPartitionsPeak: Int, cachedBytesPeak: Long)

/** Listener for the traced run only. Counts jobs, stages and tasks with
  * their executor run time and shuffle bytes, and follows the RDD blocks
  * held in memory through `onBlockUpdated` to find the peak of cached bytes
  * actually held. Untraced runs never register it.
  */
final class SparkTrace(sc: SparkContext) extends SparkListener {
  private var jobs, stages, tasks, failedTasks, taskMs, shuffleRead, shuffleWrite = 0L
  private val held = mutable.Map.empty[(String, String), Long]
  private var heldBytes, peakBytes = 0L
  private var peakPartitions = 0

  sc.addSparkListener(this)

  def detach(): Unit = sc.removeSparkListener(this)

  /** Start a window: drain earlier events, then zero the counters. Blocks
    * still held stay counted, since they occupy memory in the new window.
    */
  def reset(): Unit = {
    ListenerBusDrain(sc)
    synchronized {
      jobs = 0; stages = 0; tasks = 0; failedTasks = 0; taskMs = 0
      shuffleRead = 0; shuffleWrite = 0
      peakBytes = heldBytes; peakPartitions = held.size
    }
  }

  /** End a window: drain its events and return its counts. */
  def snapshot(): SparkCounts = {
    ListenerBusDrain(sc)
    synchronized {
      SparkCounts(jobs, stages, tasks, failedTasks, taskMs, shuffleRead, shuffleWrite,
        peakPartitions, peakBytes)
    }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    if (e.reason != Success) failedTasks += 1
    val m = e.taskMetrics
    if (m != null) {
      taskMs += m.executorRunTime
      shuffleRead += m.shuffleReadMetrics.totalBytesRead
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    info.blockId match {
      case b: RDDBlockId =>
        val key = (info.blockManagerId.executorId, b.name)
        heldBytes -= held.getOrElse(key, 0L)
        if (info.memSize > 0) held(key) = info.memSize else held.remove(key)
        heldBytes += held.getOrElse(key, 0L)
        peakBytes = math.max(peakBytes, heldBytes)
        peakPartitions = math.max(peakPartitions, held.size)
      case _ =>
    }
  }
}
