package repro.core

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.ErrorType._
import repro.data.Datasets

/** End-to-end tests of the per-cell experiment engine with a reduced model
  * set (to keep the unit-test run fast; the full grid runs in bench/).
  */
class ExperimentSpec extends SparkSpec {

  private val fastCfg = RunConfig(splits = 1, seeds = 1, searchK = 1,
    models = Seq("decision_tree", "naive_bayes"))

  test("mislabel cell: produces BD+CD rows for each model and seed") {
    val ds = Datasets.byName("EEG")
    val full = ds.dirty(spark, Mislabels, "uniform")
    val rows = Experiment.runCell(ds, Mislabels, "uniform", full, split = 0, fastCfg)
    // 1 method × 2 scenarios × 2 models × 1 seed = 4 rows
    assert(rows.size == 4)
    assert(rows.map(_.scenario).toSet == Set("BD", "CD"))
    assert(rows.forall(_.dataset == "EEG_uniform"))
    assert(rows.forall(r => r.detect == "ground_truth" && r.repair == "flip"))
    rows.foreach { r =>
      assert(r.test_b >= 0.0 && r.test_b <= 1.0)
      assert(r.test_d >= 0.0 && r.test_d <= 1.0)
    }
  }

  test("mislabel CD: cleaning test labels lifts the metric (engineered effect)") {
    val ds = Datasets.byName("EEG")
    val full = ds.dirty(spark, Mislabels, "uniform")
    val rows = (0 until 3).flatMap(s =>
      Experiment.runCell(ds, Mislabels, "uniform", full, s, fastCfg))
    val cd = rows.filter(_.scenario == "CD")
    val avgDiff = cd.map(r => r.test_d - r.test_b).sum / cd.size
    // Dirty test labels cap accuracy below the clean test labels by about
    // (2*acc - 1) * 5%.
    assert(avgDiff > 0.01, s"avg CD diff = $avgDiff")
  }

  private lazy val titanic = Datasets.byName("Titanic")
  private lazy val titanicMV = titanic.dirty(spark, MissingValues)
  private lazy val titanicMVRows =
    Experiment.runCell(titanic, MissingValues, "", titanicMV, 0, fastCfg)

  test("missing-values cell: BD-only, one row per imputation method") {
    val rows = titanicMVRows
    // 6 imputers × 1 scenario × 2 models = 12 rows
    assert(rows.size == 12)
    assert(rows.forall(_.scenario == "BD"))
    assert(rows.map(_.repair).toSet.size == 6)
  }

  test("missing-values cell: the B side is the deletion-trained model") {
    val rows = titanicMVRows
    assert(rows.forall(_.scenario == "BD"))
    val (train, test) = Splits.trainTest(titanicMV, 0)
    val (delTrain, _) = repro.clean.MissingValues.Deletion.clean(titanic.spec, train, test)
    val arm = Experiment.buildArm(titanic.spec, delTrain, 0, ArrayBuffer.empty)
    for (m <- fastCfg.models; seed <- 0 until fastCfg.seeds) {
      val valB = Experiment.fitModel(arm, repro.ml.Models.byName(m), titanic.spec.metric,
        0, seed, fastCfg).valScore
      val sameSpec = rows.filter(r => r.model == m && r.seed == seed)
      assert(sameSpec.size == 6)
      sameSpec.foreach(r => assert(r.val_b == valB, s"$m/$seed ${r.repair}"))
    }
  }

  test("outlier cell: 12 methods × 2 scenarios per model") {
    val cfg = fastCfg.copy(models = Seq("naive_bayes"))
    val ds = Datasets.byName("Sensor")
    val full = ds.dirty(spark, Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    assert(rows.size == 24)
    assert(rows.map(r => (r.detect, r.repair)).toSet.size == 12)
  }

  test("CD rows share the clean-trained model: val_b equals val_d") {
    val ds = Datasets.byName("Movie")
    val full = ds.dirty(spark, Duplicates)
    val rows = Experiment.runCell(ds, Duplicates, "", full, 0, fastCfg)
    rows.filter(_.scenario == "CD").foreach(r => assert(r.val_b == r.val_d))
  }

  test("a duplicates cell gives the same measurements at 2 and 64 shuffle partitions") {
    val cfg = fastCfg.copy(models = Seq("random_forest", "logistic_regression"))
    val ds = Datasets.byName("Movie")
    val full = ds.dirty(spark, Duplicates)
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    try {
      val runs = Seq("2", "64").map { n =>
        spark.conf.set(key, n)
        Experiment.runCell(ds, Duplicates, "", full, 0, cfg)
      }
      assert(runs.head.nonEmpty)
      assert(runs.head == runs.last)
    } finally spark.conf.set(key, before)
  }

  test("runCell is deterministic") {
    val ds = Datasets.byName("University")
    val full = ds.dirty(spark, Inconsistencies)
    val r1 = Experiment.runCell(ds, Inconsistencies, "", full, 0, fastCfg)
    val r2 = Experiment.runCell(ds, Inconsistencies, "", full, 0, fastCfg)
    assert(r1 == r2)
  }

  test("imbalanced datasets are scored with F1") {
    val cfg = fastCfg.copy(models = Seq("decision_tree"))
    val ds = Datasets.byName("Credit")
    val full = ds.dirty(spark, Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    // F1 can legitimately be 0; just check rows exist and are in range.
    assert(rows.nonEmpty)
    assert(rows.forall(r => r.test_b >= 0.0 && r.test_b <= 1.0))
  }

  test("fitModel guards degenerate single-class arms with a constant predictor") {
    val ds = Datasets.byName("EEG")
    val full = ds.clean(spark).filter(col("label") === 1.0) // single class
    val (train, _) = Splits.trainTest(full, 0)
    val arm = Experiment.buildArm(ds.spec, train, 0, ArrayBuffer.empty)
    val fitted = Experiment.fitModel(arm, repro.ml.Models.byName("xgboost"), "acc", 0, 0, fastCfg)
    val preds = fitted.arm.rows(full.limit(20)).map { case (v, _) => fitted.predict(v) }.distinct
    assert(preds == Seq(1.0))
  }

  test("an arm collects each test frame once") {
    val ds = Datasets.byName("EEG")
    val (train, test) = Splits.trainTest(ds.clean(spark), 0)
    val arm = Experiment.buildArm(ds.spec, train, 0, ArrayBuffer.empty)
    val rows = arm.rows(test)
    assert(arm.rows(test) eq rows)
    // A frame is keyed by identity: another instance is collected anew.
    val again = arm.rows(test.select("*"))
    assert(!(again eq rows) && again == rows)
  }

  test("search with searchK>1 picks the config with the best validation score") {
    val cfg = fastCfg.copy(searchK = 3, models = Seq("decision_tree"))
    val ds = Datasets.byName("EEG")
    val full = ds.dirty(spark, Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    assert(rows.nonEmpty) // exercises the multi-config path end-to-end
  }
}
