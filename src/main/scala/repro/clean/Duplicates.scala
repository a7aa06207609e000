package repro.clean

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.Method
import repro.data.DataSpec

/** Duplicate cleaning (paper §3.1.3): detection by key collision on the
  * dataset's entity-key attribute; repair keeps the first record (smallest
  * rid) of each key group and deletes the rest. Train and test sets are
  * deduplicated independently.
  */
object Duplicates extends Cleaner {
  val method = Method("key_collision", "delete")

  /** The frame's (key, rid) pairs are collected once; the smallest rid of
    * each key, a null key being one group, is kept by a filter. With no
    * shuffle, the output keeps its input's partitions and row order.
    */
  def dedup(spec: DataSpec, df: DataFrame): DataFrame = {
    val key = spec.keyCol.getOrElse(sys.error(s"${spec.name} has no key column"))
    val firsts = df.select(col(key), col("rid")).collect().toSeq
      .groupMapReduce(_.get(0))(_.getLong(1))(math.min)
    df.filter(col("rid").isInCollection(firsts.values))
  }

  def clean(spec: DataSpec, train: DataFrame, test: DataFrame): (DataFrame, DataFrame) =
    (dedup(spec, train), dedup(spec, test))
}
