package org.apache.spark

/** Listener events are delivered asynchronously; the benchmark must wait
  * for them before it reads a [[org.apache.spark.scheduler.SparkListener]]'s
  * totals. The wait is only reachable from inside Spark's package.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
