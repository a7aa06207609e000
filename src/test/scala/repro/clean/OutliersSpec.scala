package repro.clean

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.ErrorType
import repro.data.Datasets

class OutliersSpec extends SparkSpec {

  private val ds = Datasets.byName("EEG")
  private lazy val dirty = ds.dirty(spark, ErrorType.Outliers).cache()
  private lazy val (train, testSet) = repro.core.Splits.trainTest(dirty, 0)

  private def detector(detect: String, c: String) =
    Outliers.fitDetector(detect, Cleaner.columns(train, Seq(c)).values[Double](c))

  test("registry has the 12 paper detector-repair combinations") {
    assert(Outliers.cleaners.size == 12)
    assert(Outliers.cleaners.map(_.method.detect).toSet == Set("SD", "IQR", "IF"))
    assert(Outliers.cleaners.map(_.method.repair).toSet ==
      Set("delete", "impute_mean", "impute_median", "impute_mode"))
  }

  test("SD detection count matches DuckDB mean±3sd (oracle-checked)") {
    val cnt = train.filter(Outliers.flagged(detector("SD", "f1"), "f1")).count()
    Oracle.assertEquivalent(
      spark.range(1).select(lit(cnt).as("flagged")),
      """SELECT COUNT(*) AS flagged FROM t
        |WHERE CAST(f1 AS DOUBLE) <
        |  (SELECT AVG(CAST(f1 AS DOUBLE)) - 3*STDDEV_SAMP(CAST(f1 AS DOUBLE)) FROM t)
        |   OR CAST(f1 AS DOUBLE) >
        |  (SELECT AVG(CAST(f1 AS DOUBLE)) + 3*STDDEV_SAMP(CAST(f1 AS DOUBLE)) FROM t)""".stripMargin,
      "t" -> train)
  }

  test("IQR detection count matches DuckDB quantile fences (oracle-checked)") {
    val cnt = train.filter(Outliers.flagged(detector("IQR", "f2"), "f2")).count()
    Oracle.assertEquivalent(
      spark.range(1).select(lit(cnt).as("flagged")),
      """WITH q AS (SELECT QUANTILE_CONT(CAST(f2 AS DOUBLE), 0.25) AS q1,
        |                  QUANTILE_CONT(CAST(f2 AS DOUBLE), 0.75) AS q3 FROM t)
        |SELECT COUNT(*) AS flagged FROM t, q
        |WHERE CAST(f2 AS DOUBLE) < q.q1 - 1.5*(q.q3 - q.q1)
        |   OR CAST(f2 AS DOUBLE) > q.q3 + 1.5*(q.q3 - q.q1)""".stripMargin,
      "t" -> train)
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
    val credit = Datasets.byName("Credit").dirty(spark, ErrorType.Outliers)
    val (ctr, _) = repro.core.Splits.trainTest(credit, 0)
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
    val anyFlag = ds.spec.outlierCols.map(c => Outliers.flagged(detector("SD", c), c)).reduce(_ || _)
    assert(trC.count() == train.filter(!anyFlag).count())
    assert(teC.count() == testSet.filter(!anyFlag).count())
    assert(trC.filter(anyFlag).count() == 0)
  }

  test("impute repairs keep row counts and remove extreme cells") {
    for (rep <- Seq("impute_mean", "impute_median", "impute_mode")) {
      val (trC, teC) = Outliers.cleaner("SD", rep).clean(ds.spec, train, testSet)
      assert(trC.count() == train.count(), rep)
      assert(teC.count() == testSet.count(), rep)
      val maxBefore = train.agg(max(abs(col("f1")))).head().getDouble(0)
      val maxAfter  = trC.agg(max(abs(col("f1")))).head().getDouble(0)
      assert(maxAfter < maxBefore, s"$rep: $maxAfter vs $maxBefore")
    }
  }

  test("imputed value is the statistic of NON-flagged training cells") {
    val (trC, _) = Outliers.cleaner("SD", "impute_mean").clean(ds.spec, train, testSet)
    val inlierMean = train.filter(!Outliers.flagged(detector("SD", "f1"), "f1"))
      .agg(avg(col("f1"))).head().getDouble(0)
    val changed = trC.alias("c").join(train.alias("d"), "rid")
      .filter(col("c.f1") =!= col("d.f1"))
      .select(col("c.f1")).distinct().collect()
    assert(changed.nonEmpty)
    assert(changed.forall(r => math.abs(r.getDouble(0) - inlierMean) < 1e-9))
  }

  test("detection thresholds come from train only (no leakage)") {
    // Blow up the test set; after repair, no cell may violate the
    // TRAIN-derived SD bounds — i.e. the thresholds did not move with the
    // corrupted test data.
    val wildTest = testSet.withColumn("f1", col("f1") * 1000)
    val (_, te2) = Outliers.cleaner("SD", "impute_mean").clean(ds.spec, train, wildTest)
    assert(te2.filter(Outliers.flagged(detector("SD", "f1"), "f1")).count() == 0)
  }

  test("cleaning corruption brings the dirty train closer to the clean truth") {
    val cleanTruth = ds.clean(spark)
    val (trueTrain, _) = repro.core.Splits.trainTest(cleanTruth, 0)
    def rmse(df: org.apache.spark.sql.DataFrame): Double = {
      val joined = df.alias("a").join(trueTrain.alias("b"), "rid")
      val se = ds.spec.outlierCols.map(c =>
        pow(col(s"a.$c") - col(s"b.$c"), 2.0)).reduce(_ + _)
      math.sqrt(joined.agg(avg(se)).head().getDouble(0))
    }
    val before = rmse(train)
    val (trC, _) = Outliers.cleaner("IQR", "impute_median").clean(ds.spec, train, testSet)
    val after = rmse(trC)
    assert(after < before * 0.7, s"after=$after before=$before")
  }
}
