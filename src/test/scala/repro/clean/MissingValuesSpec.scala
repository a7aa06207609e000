package repro.clean

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.ErrorType
import repro.data.Datasets

class MissingValuesSpec extends SparkSpec {

  private val ds = Datasets.byName("Titanic")
  private lazy val dirty = ds.dirty(spark, ErrorType.MissingValues).cache()
  private lazy val (train, testSet) = repro.core.Splits.trainTest(dirty, 0)
  private lazy val ages = Cleaner.columns(train, Seq("age")).values[Double]("age")

  test("registry exposes exactly the six paper imputation combos") {
    assert(MissingValues.imputers.map(_.method.repair).toSet == Set(
      "mean_mode", "median_mode", "mode_mode",
      "mean_dummy", "median_dummy", "mode_dummy"))
    assert(MissingValues.imputers.forall(_.method.detect == "empty_entry"))
  }

  test("deletion removes exactly the rows with missing feature cells") {
    val (trC, teC) = MissingValues.Deletion.clean(ds.spec, train, testSet)
    assert(trC.filter(MissingValues.anyMissing(ds.spec)).count() == 0)
    assert(teC.filter(MissingValues.anyMissing(ds.spec)).count() == 0)
    val expected = train.filter(!MissingValues.anyMissing(ds.spec)).count()
    assert(trC.count() == expected)
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
      assert(trC.count() == train.count(), c.method)
      assert(teC.count() == testSet.count(), c.method)
    }
  }

  test("mean imputation fills with the train mean (oracle-checked)") {
    val m = MissingValues.numericStat(ages, "mean")
    Oracle.assertEquivalent(
      spark.range(1).select(lit(math.round(m * 1000) / 1000.0).as("train_mean")),
      "SELECT ROUND(AVG(CAST(age AS DOUBLE)), 3) AS train_mean FROM t WHERE age IS NOT NULL",
      "t" -> train)
    val (trC, _) = MissingValues.imputer("mean", "mode").clean(ds.spec, train, testSet)
    val joined = trC.alias("c").join(train.alias("d"), "rid")
      .filter(col("d.age").isNull)
    val distinctFill = joined.select(col("c.age")).distinct().collect()
    assert(distinctFill.length == 1)
    assert(math.abs(distinctFill(0).getDouble(0) - m) < 1e-9)
  }

  test("median imputation fills with the exact train median (oracle-checked)") {
    val m = MissingValues.numericStat(ages, "median")
    Oracle.assertEquivalent(
      spark.range(1).select(lit(m).as("med")),
      "SELECT QUANTILE_CONT(CAST(age AS DOUBLE), 0.5) AS med FROM t WHERE age IS NOT NULL",
      "t" -> train)
  }

  test("numeric mode picks the most frequent value, ties to smallest") {
    assert(MissingValues.numericStat(Array(3.0, 3.0, 1.0, 1.0, 2.0), "mode") == 1.0)
  }

  test("categorical mode and dummy imputation") {
    val mode = MissingValues.stringMode(Cleaner.columns(train, Seq("embarked")).values[String]("embarked"))
    assert(Seq("s", "c", "q").contains(mode))
    val (trMode, _) = MissingValues.imputer("mean", "mode").clean(ds.spec, train, testSet)
    val (trDummy, _) = MissingValues.imputer("mean", "dummy").clean(ds.spec, train, testSet)
    val missingRids = train.filter(col("embarked").isNull).select("rid")
    val filledMode = trMode.join(missingRids, "rid").select("embarked").distinct().collect()
    assert(filledMode.forall(_.getString(0) == mode))
    val filledDummy = trDummy.join(missingRids, "rid").select("embarked").distinct().collect()
    assert(filledDummy.forall(_.getString(0) == MissingValues.DummyCategory))
  }

  test("imputation statistics come from train only (no leakage)") {
    // Corrupt the test set's ages wildly; the fill value must not move.
    val m1 = {
      val (trC, _) = MissingValues.imputer("mean", "mode").clean(ds.spec, train, testSet)
      trC.join(train.filter(col("age").isNull).select("rid"), "rid")
        .select("age").head().getDouble(0)
    }
    val testWild = testSet.withColumn("age", when(col("age").isNotNull, lit(9999.0)))
    val m2 = {
      val (trC, _) = MissingValues.imputer("mean", "mode").clean(ds.spec, train, testWild)
      trC.join(train.filter(col("age").isNull).select("rid"), "rid")
        .select("age").head().getDouble(0)
    }
    assert(m1 == m2)
  }

  test("missingCellCount agrees with a DuckDB count") {
    val cnt = MissingValues.missingCellCount(ds.spec, train)
    val sumSql = ds.spec.featureCols
      .map(c => s"SUM(CASE WHEN $c IS NULL THEN 1 ELSE 0 END)").mkString(" + ")
    Oracle.assertEquivalent(
      spark.range(1).select(lit(cnt).as("missing")),
      s"SELECT $sumSql AS missing FROM t",
      "t" -> train)
  }
}
