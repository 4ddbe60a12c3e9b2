package org.apache.spark

/** Waits until every event posted so far has reached the registered
  * listeners, so that counters read after an op include all of its jobs.
  * The listener bus is package-private to Spark, hence this package.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
