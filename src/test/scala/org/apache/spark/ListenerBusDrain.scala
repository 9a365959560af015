package org.apache.spark

/** Reaches the listener bus, which Spark keeps package-private, so a test
  * can wait for every queued event before reading what a listener saw.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(30000L)
}
