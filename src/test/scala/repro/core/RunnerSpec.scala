package repro.core

import repro.SparkSpec
import repro.core.ErrorType._
import repro.data.Datasets

/** Small end-to-end run of the full pipeline (one error type, two models,
  * few splits) — the full grid runs under bench/.
  */
class RunnerSpec extends SparkSpec {

  private val cfg = RunConfig(splits = 2, seeds = 1, searchK = 1,
    parallelism = 4, models = Seq("decision_tree", "naive_bayes"))

  private lazy val rel = Runner.run(spark, cfg, Set(Inconsistencies))

  test("measurement grid covers every spec at every split") {
    val meas = rel.measurements
    val expected = Specs.r1(cfg.models, Set(Inconsistencies))
    // inconsistencies: 4 datasets × 1 method × 2 scenarios × 2 models
    assert(expected.size == 16)
    assert(meas.count() == expected.size.toLong * cfg.splits)
    val got = meas.select("dataset", "error_type", "detect", "repair", "model", "scenario")
      .distinct().collect()
      .map(r => Specs.R1Spec(r.getString(0), r.getString(1), r.getString(2),
        r.getString(3), r.getString(4), r.getString(5))).toSet
    assert(got == expected.toSet)
  }

  test("R1 has one flagged row per spec") {
    assert(rel.r1.count() == 16)
    val flags = rel.r1.select("flag").distinct().collect().map(_.getString(0)).toSet
    assert(flags.subsetOf(Set("P", "S", "N")))
  }

  test("R2 and R3 have the selected-down spec counts") {
    assert(rel.r2.count() == 8)  // 4 datasets × 2 scenarios
    assert(rel.r3.count() == 8)  // same: only one cleaning method for inconsistencies
  }

  test("metrics are valid probabilities") {
    val bad = rel.measurements.filter(
      "test_b < 0 OR test_b > 1 OR test_d < 0 OR test_d > 1 OR " +
      "val_b < 0 OR val_b > 1 OR val_d < 0 OR val_d > 1").count()
    assert(bad == 0)
  }

  test("measurements restores the caller's shuffle-partition setting") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    spark.conf.set(key, "7")
    try {
      Runner.measurements(spark, cfg.copy(splits = 1, models = Seq("naive_bayes")),
        Set(Inconsistencies), Seq(Datasets.byName("University")))
      assert(spark.conf.get(key) == "7")
    } finally spark.conf.set(key, before)
  }

  test("printTable15 renders without error") {
    Runner.printTable15(rel, Inconsistencies)
  }
}
