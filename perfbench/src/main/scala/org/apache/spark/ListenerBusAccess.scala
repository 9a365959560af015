package org.apache.spark

/** Reaches the listener bus, which Spark keeps package-private, so the
  * benchmark can wait for every queued event before reading its counters.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext, timeoutMs: Long = 30000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
