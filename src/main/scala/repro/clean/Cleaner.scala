package repro.clean

import scala.reflect.ClassTag

import org.apache.spark.sql.{DataFrame, Row}

import repro.core.Method
import repro.data.DataSpec

/** A cleaning method = detection + repair (paper Table 2) over a
  * (train, test) pair.
  *
  * Contract: all statistics needed for detection or repair (means,
  * quantiles, modes, isolation forests, fingerprint→canonical maps) are
  * computed on the TRAINING set only and applied to both sets — the
  * paper's anti-leakage rule (§4.1 step 2). The statistics are computed on
  * the driver from one collect of the training columns
  * ([[Cleaner.columns]]); the repairs stay DataFrame transforms.
  */
trait Cleaner extends Serializable {
  def method: Method

  /** Returns (cleanTrain, cleanTest). */
  def clean(spec: DataSpec, train: DataFrame, test: DataFrame): (DataFrame, DataFrame)
}

object Cleaner {

  /** Columns of a frame, collected to the driver in one job. */
  final class Columns private[Cleaner] (names: Seq[String], rows: Array[Row]) {
    /** The non-null values of column `c`, in row order. */
    def values[A: ClassTag](c: String): Array[A] = {
      val i = names.indexOf(c)
      rows.collect { case r if !r.isNullAt(i) => r.getAs[A](i) }
    }
  }

  def columns(df: DataFrame, cols: Seq[String]): Columns =
    new Columns(cols, df.select(cols.head, cols.tail: _*).collect())
}
