package org.apache.spark

/** Waits until every event posted so far has reached the listeners, so a
  * listener's counts cover exactly the work submitted before the call.
  * `SparkContext.listenerBus` is package-private to Spark, hence this file's
  * package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
