package repro.clean

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.core.Method
import repro.data.DataSpec
import repro.stats.Descriptive

/** Missing-value cleaning (paper §3.1.1).
  *
  * Detection: empty/NaN entries (we normalize to SQL NULL at injection).
  * Repairs: row deletion, or one of six imputation combos — numeric
  * {mean, median, mode} × categorical {mode, dummy "missing" category}.
  * Imputation statistics come from the training set only.
  */
object MissingValues {

  val DummyCategory = "missing"

  /** Count of missing feature cells (used by tests and diagnostics). */
  def missingCellCount(spec: DataSpec, df: DataFrame): Long = {
    val exprs = spec.featureCols.map(c =>
      sum(when(col(c).isNull, 1L).otherwise(0L)))
    val row = df.agg(exprs.head, exprs.tail: _*).head()
    (0 until spec.featureCols.size).map(row.getLong).sum
  }

  /** Deletion repair: drop any record with a missing feature value. */
  object Deletion extends Cleaner {
    val method = Method("empty_entry", "delete")
    def clean(spec: DataSpec, train: DataFrame, test: DataFrame): (DataFrame, DataFrame) =
      (train.na.drop(spec.featureCols), test.na.drop(spec.featureCols))
  }

  /** The six imputation repairs, named `<numeric>_<categorical>` as in
    * paper Table 2 (e.g. "mean_dummy" = numeric mean + categorical dummy).
    */
  val imputers: Seq[Cleaner] =
    for {
      num <- Seq("mean", "median", "mode")
      cat <- Seq("mode", "dummy")
    } yield new Imputer(num, cat)

  def imputer(num: String, cat: String): Cleaner = new Imputer(num, cat)

  private final class Imputer(numStat: String, catStat: String) extends Cleaner {
    val method = Method("empty_entry", s"${numStat}_$catStat")

    def clean(spec: DataSpec, train: DataFrame, test: DataFrame): (DataFrame, DataFrame) = {
      val trainCols = Cleaner.columns(train, spec.numeric ++ spec.categorical)
      val numFill: Map[String, Double] = spec.numeric.map { c =>
        c -> numericStat(trainCols.values[Double](c), numStat)
      }.toMap
      val catFill: Map[String, String] = spec.categorical.map { c =>
        c -> (if (catStat == "dummy") DummyCategory else stringMode(trainCols.values[String](c)))
      }.toMap
      val textFill: Map[String, String] = spec.text.map(_ -> "").toMap

      def fill(df: DataFrame): DataFrame =
        df.na.fill(numFill).na.fill(catFill ++ textFill)
      (fill(train), fill(test))
    }
  }

  /** Numeric statistic of a column's non-null training values. */
  def numericStat(values: Array[Double], stat: String): Double = stat match {
    case "mean"   => Descriptive.mean(values)
    case "median" => Descriptive.percentile(values, 0.5)
    case "mode"   => Descriptive.mode(values)
    case other    => sys.error(s"unknown numeric imputation: $other")
  }

  /** Most frequent of a column's non-null training categories. */
  def stringMode(values: Array[String]): String =
    if (values.isEmpty) DummyCategory else Descriptive.mostFrequent(Descriptive.counts(values))

  /** Boolean column: row has at least one missing feature cell. */
  def anyMissing(spec: DataSpec): Column =
    spec.featureCols.map(col(_).isNull).reduce(_ || _)
}
