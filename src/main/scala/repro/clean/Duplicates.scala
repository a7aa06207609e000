package repro.clean

import org.apache.spark.sql.Row

import repro.core.Method
import repro.data.DataSpec

/** Duplicate cleaning (paper §3.1.3): detection by key collision on the
  * dataset's entity-key attribute; repair keeps the first record (smallest
  * rid) of each key group and deletes the rest. Train and test sets are
  * deduplicated independently.
  */
object Duplicates extends Cleaner {
  val method = Method("key_collision", "delete")

  /** The rows whose rid is the smallest of their key's, a null key being
    * one group, in their input order.
    */
  def dedup(spec: DataSpec, rows: Seq[Row]): Seq[Row] = {
    val key = spec.keyCol.getOrElse(sys.error(s"${spec.name} has no key column"))
    val firsts = rows.groupMapReduce(_.getAs[Any](key))(_.getAs[Long]("rid"))(math.min).values.toSet
    rows.filter(r => firsts.contains(r.getAs[Long]("rid")))
  }

  def clean(spec: DataSpec, train: Seq[Row], test: Seq[Row]): (Seq[Row], Seq[Row]) =
    (dedup(spec, train), dedup(spec, test))
}
