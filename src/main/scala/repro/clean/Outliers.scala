package repro.clean

import org.apache.spark.sql.Row

import repro.core.Method
import repro.data.{DataSpec, Rows}
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

  /** Each column's detector, fit on its non-null training cells; an
    * isolation forest is seeded by the column name.
    */
  private def fitDetectors(detect: String, train: Seq[Row], cols: Seq[String]): Map[String, Double => Boolean] =
    cols.map(c => c -> fitDetector(detect, Rows.values[Double](train, c), seed = c.hashCode.toLong)).toMap

  /** A cell flagged by its column's detector; a null cell never is. */
  private def isFlagged(detectors: Map[String, Double => Boolean], c: String, v: Any): Boolean =
    v != null && detectors(c)(v.asInstanceOf[Double])

  /** All 12 detector × repair cleaners. */
  val cleaners: Seq[Cleaner] =
    for (d <- Detectors; r <- Repairs) yield new OutlierCleaner(d, r)

  def cleaner(detect: String, repair: String): Cleaner = new OutlierCleaner(detect, repair)

  private final class OutlierCleaner(detect: String, repair: String) extends Cleaner {
    val method = Method(detect, repair)

    def clean(spec: DataSpec, train: Seq[Row], test: Seq[Row]): (Seq[Row], Seq[Row]) = {
      val cols = spec.outlierCols
      require(cols.nonEmpty, s"${spec.name} has no outlier columns")
      val detectors = fitDetectors(detect, train, cols)
      repair match {
        case "delete" =>
          def kept(rows: Seq[Row]) = rows.filterNot(r => cols.exists(c => isFlagged(detectors, c, r.getAs[Any](c))))
          (kept(train), kept(test))
        case rep =>
          val stat = rep.stripPrefix("impute_")
          // Imputation value = statistic of the attribute's non-flagged
          // training cells.
          val fill: Map[String, Double] = cols.map { c =>
            c -> MissingValues.numericStat(Rows.values[Double](train, c).filterNot(detectors(c)), stat)
          }.toMap
          def repaired(rows: Seq[Row]) = rows.map(r =>
            Rows.updated(r, cols)((c, v) => if (isFlagged(detectors, c, v)) fill(c) else v))
          (repaired(train), repaired(test))
      }
    }
  }

  /** Fraction of flagged cells of `rows`, detectors fit on `train`
    * (diagnostics and tests).
    */
  def flaggedCellRate(detect: String, train: Seq[Row], rows: Seq[Row], cols: Seq[String]): Double = {
    val detectors = fitDetectors(detect, train, cols)
    val flaggedCells = cols.map(c => rows.count(r => isFlagged(detectors, c, r.getAs[Any](c)))).sum
    flaggedCells.toDouble / (rows.size.toDouble * cols.size)
  }
}
