package repro.clean

import org.apache.spark.sql.Row

import repro.core.Method
import repro.data.{DataSpec, Rows}

/** Mislabel cleaning (paper §3.1.5): mislabels are injected, so ground
  * truth is known — detection is "ground truth" and repair flips the label
  * back (label := label_gt).
  */
object Mislabels extends Cleaner {
  val method = Method("ground_truth", "flip")

  def fix(rows: Seq[Row]): Seq[Row] =
    rows.map(r => Rows.updated(r, Seq("label"))((_, _) => r.getAs[Any]("label_gt")))

  def clean(spec: DataSpec, train: Seq[Row], test: Seq[Row]): (Seq[Row], Seq[Row]) =
    (fix(train), fix(test))
}
