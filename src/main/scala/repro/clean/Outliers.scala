package repro.clean

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.core.Method
import repro.data.DataSpec
import repro.stats.Descriptive

/** Numerical-outlier cleaning (paper §3.1.2).
  *
  * Detectors (fit on the training set, applied to both sets):
  *   - SD:  cell outside mean ± 3·stddev of its attribute
  *   - IQR: cell outside [Q1 - 1.5·IQR, Q3 + 1.5·IQR] (exact percentiles)
  *   - IF:  isolation-forest score above the 99th training percentile
  *          (contamination = 0.01, per attribute)
  * Repairs: delete the record, or impute the cell with the mean / median /
  * mode of the attribute's NON-flagged training values.
  */
object Outliers {

  val Detectors: Seq[String] = Seq("SD", "IQR", "IF")
  val Repairs: Seq[String]   = Seq("delete", "impute_mean", "impute_median", "impute_mode")

  /** A cell-level detector fit on one column's non-null training values:
    * true for an outlier.
    */
  def fitDetector(detect: String, values: Array[Double], seed: Long = 0L): Double => Boolean =
    detect match {
      case "SD" =>
        val m  = Descriptive.mean(values)
        val sd = Descriptive.stddevSamp(values)
        outside(m - 3.0 * sd, m + 3.0 * sd)
      case "IQR" =>
        val (q1, q3) = (Descriptive.percentile(values, 0.25), Descriptive.percentile(values, 0.75))
        val iqr = q3 - q1
        outside(q1 - 1.5 * iqr, q3 + 1.5 * iqr)
      case "IF" =>
        val forest = IsolationForest.fit(values, numTrees = 50, sampleSize = 256, seed = seed)
        val thr = IsolationForest.threshold(forest, values, contamination = 0.01)
        v => forest.score(v) > thr
      case other => sys.error(s"unknown outlier detector: $other")
    }

  private def outside(lo: Double, hi: Double): Double => Boolean = v => v < lo || v > hi

  /** Each column's detector; an isolation forest is seeded by the column name. */
  private def fitDetectors(detect: String, train: Cleaner.Columns,
                           cols: Seq[String]): Map[String, Double => Boolean] =
    cols.map(c => c -> fitDetector(detect, train.values[Double](c), seed = c.hashCode.toLong)).toMap

  /** A detector applied to a column; null cells are never flagged. */
  private[clean] def flagged(isOutlier: Double => Boolean, c: String): Column =
    udf((v: java.lang.Double) => v != null && isOutlier(v)).apply(col(c))

  /** All 12 detector × repair cleaners. */
  val cleaners: Seq[Cleaner] =
    for (d <- Detectors; r <- Repairs) yield new OutlierCleaner(d, r)

  def cleaner(detect: String, repair: String): Cleaner = new OutlierCleaner(detect, repair)

  private final class OutlierCleaner(detect: String, repair: String) extends Cleaner {
    val method = Method(detect, repair)

    def clean(spec: DataSpec, train: DataFrame, test: DataFrame): (DataFrame, DataFrame) = {
      val cols  = spec.outlierCols
      require(cols.nonEmpty, s"${spec.name} has no outlier columns")
      val trainCols = Cleaner.columns(train, cols)
      val flags = fitDetectors(detect, trainCols, cols)
      repair match {
        case "delete" =>
          val anyFlag = cols.map(c => flagged(flags(c), c)).reduce(_ || _)
          (train.filter(!anyFlag), test.filter(!anyFlag))
        case rep =>
          val stat = rep.stripPrefix("impute_")
          // Imputation value = statistic of the attribute's non-flagged
          // training cells.
          val fill: Map[String, Double] = cols.map { c =>
            c -> MissingValues.numericStat(trainCols.values[Double](c).filterNot(flags(c)), stat)
          }.toMap
          def repaired(df: DataFrame): DataFrame =
            cols.foldLeft(df) { (d, c) =>
              d.withColumn(c, when(flagged(flags(c), c), lit(fill(c))).otherwise(col(c)))
            }
          (repaired(train), repaired(test))
      }
    }
  }

  /** Fraction of flagged cells (diagnostics and tests). */
  def flaggedCellRate(detect: String, train: DataFrame, df: DataFrame,
                      cols: Seq[String]): Double = {
    val flags = fitDetectors(detect, Cleaner.columns(train, cols), cols)
    val cells = Cleaner.columns(df, cols)
    val flaggedCells = cols.map(c => cells.values[Double](c).count(flags(c))).sum
    flaggedCells.toDouble / (df.count().toDouble * cols.size)
  }
}
