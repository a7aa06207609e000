package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.data.Datasets
import repro.stats.{FDR, TTest}

/** Reproduces the paper's worked example (Tables 6–14): the specification
  * s1 = (EEG, outliers, IQR, mean imputation, logistic regression, BD), its
  * model-selection variant s2, and its method-selection variant s3.
  */
object Walkthrough {

  val S1Detect = "IQR"
  val S1Repair = "impute_mean"
  val S1Model  = "logistic_regression"

  private val eeg = Datasets.byName("EEG")

  private def fmt(d: Double): String = f"$d%.6f"

  /** Tables 6–9: one split, all models and methods, seeds = 1. */
  def tables6to9(spark: SparkSession): Unit = {
    val cfg  = RunConfig(splits = 1, seeds = 1)
    val full = eeg.dirtyRows(ErrorType.Outliers)
    val rows = Experiment.runCell(eeg, ErrorType.Outliers, "", full, 0, cfg)
    import spark.implicits._
    val meas = rows.toDF().filter($"scenario" === "BD").cache()

    println("\n===== Table 6: experiment specifications =====")
    println(s"  s1: (EEG, outliers, $S1Detect, $S1Repair, $S1Model, BD)")
    println(s"  s2: (EEG, outliers, $S1Detect, $S1Repair, BD)")
    println(s"  s3: (EEG, outliers, BD)")

    println("\n===== Table 7: s1 metric pair (paper: (0.634179, 0.668892)) =====")
    val s1 = meas.filter($"detect" === S1Detect && $"repair" === S1Repair &&
      $"model" === S1Model).head()
    println(f"  ${"Model"}%-22s val(dirty)  test(dirty) val(clean)  test(clean)")
    println(f"  ${S1Model}%-22s ${fmt(s1.getAs[Double]("val_b"))}    " +
      f"${fmt(s1.getAs[Double]("test_b"))}    ${fmt(s1.getAs[Double]("val_d"))}    " +
      f"${fmt(s1.getAs[Double]("test_d"))}")
    println(s"  Metric pair: (${fmt(s1.getAs[Double]("test_b"))}, ${fmt(s1.getAs[Double]("test_d"))})")

    println("\n===== Table 8: s2 all-model table (paper pair: (0.862706, 0.956386)) =====")
    val t8 = meas.filter($"detect" === S1Detect && $"repair" === S1Repair)
      .orderBy("model").collect()
    println(f"  ${"Model"}%-22s val(dirty)  test(dirty) val(clean)  test(clean)")
    t8.foreach { r =>
      println(f"  ${r.getAs[String]("model")}%-22s ${fmt(r.getAs[Double]("val_b"))}    " +
        f"${fmt(r.getAs[Double]("test_b"))}    ${fmt(r.getAs[Double]("val_d"))}    " +
        f"${fmt(r.getAs[Double]("test_d"))}")
    }
    val s2 = Relations.r2Pairs(meas.filter($"detect" === S1Detect && $"repair" === S1Repair)).head()
    println(s"  Metric pair: (${fmt(s2.getAs[Double]("b"))}, ${fmt(s2.getAs[Double]("d"))})")

    println("\n===== Table 9: s3 all-method table (paper pair: (0.937612, 0.969928)) =====")
    val r2 = Relations.r2Pairs(meas).cache()
    println(f"  ${"Detect"}%-6s ${"Repair"}%-14s bestVal(clean)  test(bestDirty)  test(bestClean)")
    r2.orderBy("detect", "repair").collect().foreach { r =>
      println(f"  ${r.getAs[String]("detect")}%-6s ${r.getAs[String]("repair")}%-14s " +
        f"${fmt(r.getAs[Double]("best_val"))}        ${fmt(r.getAs[Double]("b"))}         " +
        f"${fmt(r.getAs[Double]("d"))}")
    }
    val s3 = Relations.r3Pairs(r2).head()
    println(s"  Metric pair: (${fmt(s3.getAs[Double]("b"))}, ${fmt(s3.getAs[Double]("d"))})")
    meas.unpersist(); r2.unpersist()
  }

  /** Tables 10–11: five random-search seeds at searchK = 2. */
  def tables10to11(spark: SparkSession): Unit = {
    val cfg = RunConfig(splits = 1, seeds = 5, searchK = 2,
      methodFilter = Some(Set((S1Detect, S1Repair))))
    val full = eeg.dirtyRows(ErrorType.Outliers)
    val rows = Experiment.runCell(eeg, ErrorType.Outliers, "", full, 0, cfg)
    import spark.implicits._
    val meas = rows.toDF().filter($"scenario" === "BD").cache()

    println("\n===== Table 10: 5 random-search seeds for s1 (averaged pair) =====")
    val lr = meas.filter($"model" === S1Model).orderBy("seed").collect()
    println(f"  ${"seed"}%-5s val(dirty)  test(dirty) val(clean)  test(clean)")
    lr.foreach { r =>
      println(f"  ${r.getAs[Int]("seed")}%-5d ${fmt(r.getAs[Double]("val_b"))}    " +
        f"${fmt(r.getAs[Double]("test_b"))}    ${fmt(r.getAs[Double]("val_d"))}    " +
        f"${fmt(r.getAs[Double]("test_d"))}")
    }
    val s1agg = Relations.r1Pairs(meas.filter($"model" === S1Model)).head()
    println(s"  Aggregated (mean) pair: (${fmt(s1agg.getAs[Double]("b"))}, ${fmt(s1agg.getAs[Double]("d"))})")

    println("\n===== Table 11: 5 seeds for s2 (best-validation pair) =====")
    (0 until cfg.seeds).foreach { s =>
      val perSeed = Relations.r2Pairs(meas.filter($"seed" === s)).head()
      println(f"  seed $s%-2d best pair: (${fmt(perSeed.getAs[Double]("b"))}, ${fmt(perSeed.getAs[Double]("d"))})")
    }
    val s2agg = Relations.r2Pairs(meas).head()
    println(s"  Selected pair: (${fmt(s2agg.getAs[Double]("b"))}, ${fmt(s2agg.getAs[Double]("d"))})")
    meas.unpersist()
  }

  /** Tables 12–14: 20 splits for s1, t-tests and BY-corrected flag.
    * Returns (pairs, p-values, adjusted p-values, flag) for assertions.
    */
  def tables12to14(spark: SparkSession,
                   splits: Int = 20): (Seq[(Double, Double)], TTestResultView) = {
    val cfg = RunConfig(splits = splits, seeds = 1,
      models = Seq(S1Model), methodFilter = Some(Set((S1Detect, S1Repair))))
    val full = eeg.dirtyRows(ErrorType.Outliers)
    val rows = (0 until splits).flatMap(s =>
      Experiment.runCell(eeg, ErrorType.Outliers, "", full, s, cfg))
    import spark.implicits._
    val pairs = Relations.r1Pairs(rows.toDF().filter($"scenario" === "BD"))
      .orderBy("split")
      .collect().map(r => (r.getAs[Double]("b"), r.getAs[Double]("d"))).toSeq

    println(s"\n===== Table 12: $splits-split metric pairs for s1 (paper: B~0.63, D~0.67) =====")
    println(f"  ${"split"}%-6s B           D")
    pairs.zipWithIndex.foreach { case ((b, d), i) =>
      println(f"  $i%-6d ${fmt(b)}    ${fmt(d)}")
    }

    val t = TTest.paired(pairs)
    println("\n===== Table 13: raw p-values (paper: p0=3.82e-17, p1=1.91e-17, p2=1) =====")
    println(f"  two-tailed (p0):   ${t.p0}%.3e")
    println(f"  upper-tailed (p1): ${t.p1}%.3e")
    println(f"  lower-tailed (p2): ${t.p2}%.3e")

    // Paper corrects over all of R1; this walkthrough corrects over the s1
    // slice (3 p-values) for illustration.
    val adj = FDR.benjaminiYekutieli(Seq(t.p0, t.p1, t.p2))
    val flag = Flag.of(adj(0), adj(1), adj(2), alpha = 0.05)
    println("\n===== Table 14: BY-corrected p-values (paper flag: P) =====")
    println(f"  corrected p0: ${adj(0)}%.3e  p1: ${adj(1)}%.3e  p2: ${adj(2)}%.3e  flag: $flag")
    (pairs, TTestResultView(t.p0, t.p1, t.p2, adj(0), adj(1), adj(2), flag))
  }

  final case class TTestResultView(p0: Double, p1: Double, p2: Double,
                                   a0: Double, a1: Double, a2: Double, flag: String)
}
