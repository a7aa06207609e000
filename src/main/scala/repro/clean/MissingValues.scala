package repro.clean

import org.apache.spark.sql.Row

import repro.core.Method
import repro.data.{DataSpec, Rows}
import repro.stats.Descriptive

/** Missing-value cleaning (paper §3.1.1).
  *
  * Detection: empty/NaN entries (we normalize to SQL NULL at injection;
  * a NaN double counts as missing, as in Spark's `na` functions).
  * Repairs: row deletion, or one of six imputation combos — numeric
  * {mean, median, mode} × categorical {mode, dummy "missing" category}.
  * Imputation statistics come from the training set only.
  */
object MissingValues {

  val DummyCategory = "missing"

  /** A missing cell, as `na.drop` and `na.fill` see one: null, or a NaN
    * double.
    */
  def isMissing(v: Any): Boolean = v match {
    case null      => true
    case d: Double => d.isNaN
    case _         => false
  }

  /** The row has at least one missing feature cell. */
  def anyMissing(spec: DataSpec)(r: Row): Boolean = spec.featureCols.exists(c => isMissing(r.getAs[Any](c)))

  /** Count of missing feature cells (used by tests and diagnostics). */
  def missingCellCount(spec: DataSpec, rows: Seq[Row]): Long =
    rows.map(r => spec.featureCols.count(c => isMissing(r.getAs[Any](c))).toLong).sum

  /** Deletion repair: drop any record with a missing feature value. */
  object Deletion extends Cleaner {
    val method = Method("empty_entry", "delete")
    def clean(spec: DataSpec, train: Seq[Row], test: Seq[Row]): (Seq[Row], Seq[Row]) =
      (train.filterNot(anyMissing(spec)), test.filterNot(anyMissing(spec)))
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

  /** Fills each missing feature cell with its column's training statistic
    * (non-null training cells; text with ""), in train and test alike.
    */
  private final class Imputer(numStat: String, catStat: String) extends Cleaner {
    val method = Method("empty_entry", s"${numStat}_$catStat")

    def clean(spec: DataSpec, train: Seq[Row], test: Seq[Row]): (Seq[Row], Seq[Row]) = {
      val fill: Map[String, Any] =
        spec.numeric.map(c => c -> numericStat(Rows.values[Double](train, c), numStat)).toMap ++
          spec.categorical.map(c => c ->
            (if (catStat == "dummy") DummyCategory else stringMode(Rows.values[String](train, c)))) ++
          spec.text.map(_ -> "")
      def filled(rows: Seq[Row]): Seq[Row] =
        rows.map(r => Rows.updated(r, spec.featureCols)((c, v) => if (isMissing(v)) fill(c) else v))
      (filled(train), filled(test))
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
}
