package org.apache.spark

/** Listener events are delivered asynchronously; a test must wait for them
  * before it reads what a [[org.apache.spark.scheduler.SparkListener]] saw.
  * The wait is `private[spark]`, hence this package.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
