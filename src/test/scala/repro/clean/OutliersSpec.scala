package repro.clean

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.{ErrorType, Splits}
import repro.data.{Datasets, Rows}

class OutliersSpec extends SparkSpec {

  private val ds = Datasets.byName("EEG")
  private lazy val (train, testSet) = Splits.trainTest(ds.dirtyRows(ErrorType.Outliers), 0)
  /** The training rows as a frame, for the DuckDB oracle. */
  private lazy val trainFrame = Rows.frame(spark, ds.spec.schema, train)

  private def detector(detect: String, c: String) =
    Outliers.fitDetector(detect, Rows.values[Double](train, c))

  /** Column `c`'s cell of `r` is flagged by `isOutlier`; a null never is. */
  private def flagged(isOutlier: Double => Boolean, c: String)(r: Row): Boolean =
    !r.isNullAt(r.fieldIndex(c)) && isOutlier(r.getAs[Double](c))

  private def anyFlagged(detect: String)(r: Row): Boolean =
    ds.spec.outlierCols.exists(c => flagged(detector(detect, c), c)(r))

  private def f1(rows: Seq[Row]): Seq[Double] = rows.map(_.getAs[Double]("f1"))

  test("registry has the 12 paper detector-repair combinations") {
    assert(Outliers.cleaners.size == 12)
    assert(Outliers.cleaners.map(_.method.detect).toSet == Set("SD", "IQR", "IF"))
    assert(Outliers.cleaners.map(_.method.repair).toSet ==
      Set("delete", "impute_mean", "impute_median", "impute_mode"))
  }

  test("SD detection count matches DuckDB mean±3sd (oracle-checked)") {
    val cnt = train.count(flagged(detector("SD", "f1"), "f1"))
    Oracle.assertEquivalent(
      spark.range(1).select(lit(cnt).as("flagged")),
      """SELECT COUNT(*) AS flagged FROM t
        |WHERE CAST(f1 AS DOUBLE) <
        |  (SELECT AVG(CAST(f1 AS DOUBLE)) - 3*STDDEV_SAMP(CAST(f1 AS DOUBLE)) FROM t)
        |   OR CAST(f1 AS DOUBLE) >
        |  (SELECT AVG(CAST(f1 AS DOUBLE)) + 3*STDDEV_SAMP(CAST(f1 AS DOUBLE)) FROM t)""".stripMargin,
      "t" -> trainFrame)
  }

  test("IQR detection count matches DuckDB quantile fences (oracle-checked)") {
    val cnt = train.count(flagged(detector("IQR", "f2"), "f2"))
    Oracle.assertEquivalent(
      spark.range(1).select(lit(cnt).as("flagged")),
      """WITH q AS (SELECT QUANTILE_CONT(CAST(f2 AS DOUBLE), 0.25) AS q1,
        |                  QUANTILE_CONT(CAST(f2 AS DOUBLE), 0.75) AS q3 FROM t)
        |SELECT COUNT(*) AS flagged FROM t, q
        |WHERE CAST(f2 AS DOUBLE) < q.q1 - 1.5*(q.q3 - q.q1)
        |   OR CAST(f2 AS DOUBLE) > q.q3 + 1.5*(q.q3 - q.q1)""".stripMargin,
      "t" -> trainFrame)
  }

  test("corruption cells are detected by every detector") {
    // SD/IQR should catch most of the 4% corruption; IF is capped near its
    // 1% contamination setting by construction.
    for (d <- Seq("SD", "IQR")) {
      val rate = Outliers.flaggedCellRate(d, train, train, ds.spec.outlierCols)
      assert(rate > 0.02 && rate < 0.15, s"$d flags rate=$rate")
    }
    val ifRate = Outliers.flaggedCellRate("IF", train, train, ds.spec.outlierCols)
    assert(ifRate > 0.004 && ifRate < 0.05, s"IF flags rate=$ifRate")
  }

  test("SD is more conservative than IQR on lognormal data (Credit mechanism)") {
    val (ctr, _) = Splits.trainTest(Datasets.byName("Credit").dirtyRows(ErrorType.Outliers), 0)
    val cols = Datasets.byName("Credit").spec.outlierCols
    val sd  = Outliers.flaggedCellRate("SD", ctr, ctr, cols)
    val iqr = Outliers.flaggedCellRate("IQR", ctr, ctr, cols)
    assert(sd < iqr, s"sd=$sd iqr=$iqr")
    assert(iqr > 0.02, s"IQR should aggressively flag lognormal tails: $iqr")
  }

  test("IF flags roughly the contamination share (1%) on training data") {
    val rate = Outliers.flaggedCellRate("IF", train, train, Seq("f1"))
    assert(rate > 0.001 && rate < 0.05, s"IF rate=$rate")
  }

  test("delete repair removes exactly the rows with flagged cells") {
    val (trC, teC) = Outliers.cleaner("SD", "delete").clean(ds.spec, train, testSet)
    assert(trC == train.filterNot(anyFlagged("SD")))
    assert(teC == testSet.filterNot(anyFlagged("SD")))
    assert(trC.size < train.size)
  }

  test("impute repairs keep row counts and remove extreme cells") {
    for (rep <- Seq("impute_mean", "impute_median", "impute_mode")) {
      val (trC, teC) = Outliers.cleaner("SD", rep).clean(ds.spec, train, testSet)
      assert(trC.size == train.size, rep)
      assert(teC.size == testSet.size, rep)
      val maxBefore = f1(train).map(math.abs).max
      val maxAfter  = f1(trC).map(math.abs).max
      assert(maxAfter < maxBefore, s"$rep: $maxAfter vs $maxBefore")
    }
  }

  test("imputed value is the statistic of NON-flagged training cells") {
    val (trC, _) = Outliers.cleaner("SD", "impute_mean").clean(ds.spec, train, testSet)
    val inlierMean = trainFrame.filter(!CleanersReference.flagged(detector("SD", "f1"), "f1"))
      .agg(avg(col("f1"))).head().getDouble(0)
    val changed = f1(trC).zip(f1(train)).collect { case (c, d) if c != d => c }.distinct
    assert(changed.nonEmpty)
    assert(changed.forall(c => math.abs(c - inlierMean) < 1e-9))
  }

  test("detection thresholds come from train only (no leakage)") {
    // Blow up the test set; after repair, no cell may violate the
    // TRAIN-derived SD bounds — i.e. the thresholds did not move with the
    // corrupted test data.
    val wildTest = testSet.map(r => Rows.updated(r, Seq("f1"))((_, v) => v.asInstanceOf[Double] * 1000))
    val (_, te2) = Outliers.cleaner("SD", "impute_mean").clean(ds.spec, train, wildTest)
    assert(!te2.exists(flagged(detector("SD", "f1"), "f1")))
  }

  test("cleaning corruption brings the dirty train closer to the clean truth") {
    val truth = ds.clean(spark).collect().map(r => r.getAs[Long]("rid") -> r).toMap
    def rmse(rows: Seq[Row]): Double = {
      val se = rows.map(r => ds.spec.outlierCols.map { c =>
        math.pow(r.getAs[Double](c) - truth(r.getAs[Long]("rid")).getAs[Double](c), 2.0)
      }.sum)
      math.sqrt(se.sum / se.size)
    }
    val before = rmse(train)
    val (trC, _) = Outliers.cleaner("IQR", "impute_median").clean(ds.spec, train, testSet)
    val after = rmse(trC)
    assert(after < before * 0.7, s"after=$after before=$before")
  }
}
