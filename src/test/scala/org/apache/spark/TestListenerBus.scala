package org.apache.spark

/** Waits until every event posted so far has reached the listeners, so a
  * test's listener sees all work submitted before the call.
  * `SparkContext.listenerBus` is package-private to Spark, hence this file's
  * package.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
