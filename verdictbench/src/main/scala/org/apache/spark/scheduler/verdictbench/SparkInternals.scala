package org.apache.spark.scheduler.verdictbench

import org.apache.spark.SparkContext

/** The two scheduler facts the benchmark's job accounting needs. Both are
  * `private[spark]` or `private[scheduler]`, hence this package.
  */
object SparkInternals {

  /** Block until every event posted so far reached every listener. */
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Job ids handed out so far: the next job gets this id. */
  def jobsSubmitted(sc: SparkContext): Int = sc.dagScheduler.numTotalJobs
}
