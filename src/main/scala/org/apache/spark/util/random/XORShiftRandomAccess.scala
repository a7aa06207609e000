package org.apache.spark.util.random

/** Access to Spark's `XORShiftRandom`, which is `private[spark]`: the
  * generator that `rand(seed)`, and so `sampleBy`, draws from.
  */
object XORShiftRandomAccess {

  def apply(seed: Long): java.util.Random = new XORShiftRandom(seed)
}
