package repro.clean

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.{ErrorType, Splits}
import repro.data.{Datasets, Rows}

class MissingValuesSpec extends SparkSpec {

  private val ds = Datasets.byName("Titanic")
  private lazy val (train, testSet) = Splits.trainTest(ds.dirtyRows(ErrorType.MissingValues), 0)
  /** The training rows as a frame, for the DuckDB oracle. */
  private lazy val trainFrame = Rows.frame(spark, ds.spec.schema, train)
  private lazy val ages = Rows.values[Double](train, "age")

  /** Column `c` of the cleaned rows whose `c` was null in training. */
  private def filledIn(cleaned: Seq[Row], c: String): Seq[Any] =
    cleaned.zip(train).collect { case (r, d) if d.isNullAt(d.fieldIndex(c)) => r.getAs[Any](c) }

  test("registry exposes exactly the six paper imputation combos") {
    assert(MissingValues.imputers.map(_.method.repair).toSet == Set(
      "mean_mode", "median_mode", "mode_mode",
      "mean_dummy", "median_dummy", "mode_dummy"))
    assert(MissingValues.imputers.forall(_.method.detect == "empty_entry"))
  }

  test("deletion removes exactly the rows with missing feature cells") {
    val (trC, teC) = MissingValues.Deletion.clean(ds.spec, train, testSet)
    assert(!trC.exists(MissingValues.anyMissing(ds.spec)))
    assert(!teC.exists(MissingValues.anyMissing(ds.spec)))
    assert(trC == train.filterNot(MissingValues.anyMissing(ds.spec)))
    assert(trC.size < train.size)
  }

  test("every imputer leaves zero missing cells in train and test") {
    MissingValues.imputers.foreach { c =>
      val (trC, teC) = c.clean(ds.spec, train, testSet)
      assert(MissingValues.missingCellCount(ds.spec, trC) == 0, c.method)
      assert(MissingValues.missingCellCount(ds.spec, teC) == 0, c.method)
    }
  }

  test("imputers do not change row counts") {
    MissingValues.imputers.foreach { c =>
      val (trC, teC) = c.clean(ds.spec, train, testSet)
      assert(trC.size == train.size, c.method)
      assert(teC.size == testSet.size, c.method)
    }
  }

  test("mean imputation fills with the train mean (oracle-checked)") {
    val m = MissingValues.numericStat(ages, "mean")
    Oracle.assertEquivalent(
      spark.range(1).select(lit(math.round(m * 1000) / 1000.0).as("train_mean")),
      "SELECT ROUND(AVG(CAST(age AS DOUBLE)), 3) AS train_mean FROM t WHERE age IS NOT NULL",
      "t" -> trainFrame)
    val (trC, _) = MissingValues.imputer("mean", "mode").clean(ds.spec, train, testSet)
    val distinctFill = filledIn(trC, "age").distinct
    assert(distinctFill.length == 1)
    assert(math.abs(distinctFill.head.asInstanceOf[Double] - m) < 1e-9)
  }

  test("median imputation fills with the exact train median (oracle-checked)") {
    val m = MissingValues.numericStat(ages, "median")
    Oracle.assertEquivalent(
      spark.range(1).select(lit(m).as("med")),
      "SELECT QUANTILE_CONT(CAST(age AS DOUBLE), 0.5) AS med FROM t WHERE age IS NOT NULL",
      "t" -> trainFrame)
  }

  test("numeric mode picks the most frequent value, ties to smallest") {
    assert(MissingValues.numericStat(Array(3.0, 3.0, 1.0, 1.0, 2.0), "mode") == 1.0)
  }

  test("categorical mode and dummy imputation") {
    val mode = MissingValues.stringMode(Rows.values[String](train, "embarked"))
    assert(Seq("s", "c", "q").contains(mode))
    val (trMode, _) = MissingValues.imputer("mean", "mode").clean(ds.spec, train, testSet)
    val (trDummy, _) = MissingValues.imputer("mean", "dummy").clean(ds.spec, train, testSet)
    val filledMode = filledIn(trMode, "embarked").distinct
    assert(filledMode.nonEmpty && filledMode.forall(_ == mode))
    val filledDummy = filledIn(trDummy, "embarked").distinct
    assert(filledDummy == Seq(MissingValues.DummyCategory))
  }

  test("imputation statistics come from train only (no leakage)") {
    // Corrupt the test set's ages wildly; the fill value must not move.
    def fill(test: Seq[Row]) =
      filledIn(MissingValues.imputer("mean", "mode").clean(ds.spec, train, test)._1, "age").head
    val testWild = testSet.map(r => Rows.updated(r, Seq("age"))((_, v) => if (v == null) null else 9999.0))
    assert(fill(testSet) == fill(testWild))
  }

  test("missingCellCount agrees with a DuckDB count") {
    val cnt = MissingValues.missingCellCount(ds.spec, train)
    val sumSql = ds.spec.featureCols
      .map(c => s"SUM(CASE WHEN $c IS NULL THEN 1 ELSE 0 END)").mkString(" + ")
    Oracle.assertEquivalent(
      spark.range(1).select(lit(cnt).as("missing")),
      s"SELECT $sumSql AS missing FROM t",
      "t" -> trainFrame)
  }
}
