package repro.core

import scala.collection.mutable.ArrayBuffer

import repro.SparkSpec
import repro.clean.CleaningMethods
import repro.core.ErrorType._
import repro.data.Datasets
import repro.ml.Models

/** End-to-end tests of the per-cell experiment engine with a reduced model
  * set (to keep the unit-test run fast; the full grid runs in bench/).
  */
class ExperimentSpec extends SparkSpec {

  private val fastCfg = RunConfig(splits = 1, seeds = 1, searchK = 1,
    models = Seq("decision_tree", "naive_bayes"))

  test("mislabel cell: produces BD+CD rows for each model and seed") {
    val ds = Datasets.byName("EEG")
    val full = ds.dirtyRows(Mislabels, "uniform")
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
    val full = ds.dirtyRows(Mislabels, "uniform")
    val rows = (0 until 3).flatMap(s =>
      Experiment.runCell(ds, Mislabels, "uniform", full, s, fastCfg))
    val cd = rows.filter(_.scenario == "CD")
    val avgDiff = cd.map(r => r.test_d - r.test_b).sum / cd.size
    // Dirty test labels cap accuracy below the clean test labels by about
    // (2*acc - 1) * 5%.
    assert(avgDiff > 0.01, s"avg CD diff = $avgDiff")
  }

  private lazy val titanic = Datasets.byName("Titanic")
  private lazy val titanicMV = titanic.dirtyRows(MissingValues)
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
    val arm = Experiment.buildArm(titanic.spec, delTrain, 0)
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
    val full = ds.dirtyRows(Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    assert(rows.size == 24)
    assert(rows.map(r => (r.detect, r.repair)).toSet.size == 12)
  }

  test("CD rows share the clean-trained model: val_b equals val_d") {
    val ds = Datasets.byName("Movie")
    val full = ds.dirtyRows(Duplicates)
    val rows = Experiment.runCell(ds, Duplicates, "", full, 0, fastCfg)
    rows.filter(_.scenario == "CD").foreach(r => assert(r.val_b == r.val_d))
  }

  test("a duplicates cell gives the same measurements at 2 and 64 shuffle partitions") {
    val cfg = fastCfg.copy(models = Seq("random_forest", "logistic_regression"))
    val ds = Datasets.byName("Movie")
    val full = ds.dirtyRows(Duplicates)
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
    val full = ds.dirtyRows(Inconsistencies)
    val r1 = Experiment.runCell(ds, Inconsistencies, "", full, 0, fastCfg)
    val r2 = Experiment.runCell(ds, Inconsistencies, "", full, 0, fastCfg)
    assert(r1 == r2)
  }

  test("imbalanced datasets are scored with F1") {
    val cfg = fastCfg.copy(models = Seq("decision_tree"))
    val ds = Datasets.byName("Credit")
    val full = ds.dirtyRows(Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    // F1 can legitimately be 0; just check rows exist and are in range.
    assert(rows.nonEmpty)
    assert(rows.forall(r => r.test_b >= 0.0 && r.test_b <= 1.0))
  }

  test("fitModel guards degenerate single-class arms with a constant predictor") {
    val ds = Datasets.byName("EEG")
    val full = ds.clean(spark).collect().toSeq.filter(_.getAs[Double]("label") == 1.0) // single class
    val (train, _) = Splits.trainTest(full, 0)
    val arm = Experiment.buildArm(ds.spec, train, 0)
    val fitted = Experiment.fitModel(arm, repro.ml.Models.byName("xgboost"), "acc", 0, 0, fastCfg)
    val preds = arm.featurize.labeled(full.take(20)).map { case (v, _) => fitted.predict(v) }.distinct
    assert(preds == Seq(1.0))
  }

  test("the frame adapters give the row path's arm and score") {
    val ds = Datasets.byName("Titanic")
    val rows = ds.dirtyRows(MissingValues)
    val (train, test) = Splits.trainTest(rows, 1)
    val (trainDF, testDF) = Splits.trainTest(ds.dirty(spark, MissingValues), 1)
    val c = repro.clean.MissingValues.imputer("median", "dummy")
    val (trC, teC) = c.clean(ds.spec, train, test)
    val (trCDF, teCDF) = c.clean(ds.spec, trainDF, testDF)
    assert(trainDF.collect().toSeq == train && testDF.collect().toSeq == test)
    assert(trCDF.collect().toSeq == trC && teCDF.collect().toSeq == teC)
    assert(Seq(trainDF, testDF, trCDF, teCDF).forall(_.rdd.getNumPartitions == 1))
    val arm = Experiment.buildArm(ds.spec, trC, 1)
    val armDF = Experiment.buildArm(ds.spec, trCDF, 1, ArrayBuffer.empty)
    assert(armDF.sub.rows == arm.sub.rows && armDF.valRows == arm.valRows)
    val fitted = Experiment.fitModel(arm, Models.byName("naive_bayes"), ds.spec.metric, 1, 0, fastCfg)
    assert(Experiment.evalOn(fitted, teCDF, ds.spec.metric) == Experiment.evalOn(fitted, teC, ds.spec.metric))
  }

  test("search with searchK>1 picks the config with the best validation score") {
    val cfg = fastCfg.copy(searchK = 3, models = Seq("decision_tree"))
    val ds = Datasets.byName("EEG")
    val full = ds.dirtyRows(Outliers)
    val rows = Experiment.runCell(ds, Outliers, "", full, 0, cfg)
    assert(rows.nonEmpty) // exercises the multi-config path end-to-end
  }

  /** One dataset (and mislabel variant) per error type. */
  private val cells = Seq((MissingValues, "Titanic", ""), (Outliers, "Credit", ""),
    (Duplicates, "Movie", ""), (Inconsistencies, "University", ""), (Mislabels, "EEG", "uniform"))

  /** The models that fit on the driver, named as the tests name them. */
  private val driverModels = Seq("a naive_bayes + knn" -> Seq("naive_bayes", "knn"), "an adaboost" -> Seq("adaboost"))

  for ((error, name, variant) <- cells; (what, models) <- driverModels)
    test(s"$what ${error.name} cell starts no Spark job") {
      val ds = Datasets.byName(name)
      val full = ds.dirtyRows(error, variant)
      val cfg = fastCfg.copy(models = models)
      var rows = Seq.empty[Measurement]
      assert(jobsOf { rows = Experiment.runCell(ds, error, variant, full, 0, cfg) } == 0)
      assert(rows.nonEmpty)
    }

  test("a decision_tree cell starts only the jobs of its fits") {
    val ds = Datasets.byName("EEG")
    val full = ds.dirtyRows(Mislabels, "major")
    val cfg = fastCfg.copy(models = Seq("decision_tree"))
    val cellJobs = jobsOf(Experiment.runCell(ds, Mislabels, "major", full, 1, cfg))
    // The cell's two arms, rebuilt without Spark, each fit once more.
    val (train, test) = Splits.trainTest(full, 1)
    val arms = Seq(train, CleaningMethods.forError(Mislabels).head.clean(ds.spec, train, test)._1)
      .map(Experiment.buildArm(ds.spec, _, 1))
    val fitJobs = jobsOf(arms.foreach(Experiment.fitModel(_, Models.byName("decision_tree"),
      ds.spec.metric, 1, 0, cfg)))
    assert(fitJobs > 0 && cellJobs == fitJobs)
  }
}
