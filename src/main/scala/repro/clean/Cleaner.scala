package repro.clean

import org.apache.spark.sql.{DataFrame, Row}

import repro.core.Method
import repro.data.{DataSpec, Rows}

/** A cleaning method = detection + repair (paper Table 2) over a
  * (train, test) pair of row sets.
  *
  * Contract: all statistics needed for detection or repair (means,
  * quantiles, modes, isolation forests, fingerprint→canonical maps) are
  * computed on the TRAINING set only and applied to both sets — the
  * paper's anti-leakage rule (§4.1 step 2). A cleaner is a function of
  * driver rows: it keeps each set's surviving rows in order and rewrites
  * their cells, and runs no Spark job.
  */
trait Cleaner {
  def method: Method

  /** Returns (cleanTrain, cleanTest). */
  def clean(spec: DataSpec, train: Seq[Row], test: Seq[Row]): (Seq[Row], Seq[Row])

  /** `clean` of two frames' collected rows, each result one partition. */
  final def clean(spec: DataSpec, train: DataFrame, test: DataFrame): (DataFrame, DataFrame) = {
    val (trC, teC) = clean(spec, train.collect().toSeq, test.collect().toSeq)
    (Rows.frame(train.sparkSession, train.schema, trC), Rows.frame(test.sparkSession, test.schema, teC))
  }
}
