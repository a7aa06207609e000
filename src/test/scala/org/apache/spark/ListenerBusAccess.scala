package org.apache.spark

/** Test access to the listener bus, which is `private[spark]`. */
object ListenerBusAccess {

  /** Block until every event posted so far reached every listener. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
