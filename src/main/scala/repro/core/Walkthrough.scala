package repro.core

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

  /** A measurement's validation and test metrics, dirty then clean. */
  private def metrics(m: Measurement): String =
    s"${fmt(m.val_b)}    ${fmt(m.test_b)}    ${fmt(m.val_d)}    ${fmt(m.test_d)}"

  private def pair(p: Relations.Pair): String = s"(${fmt(p.b)}, ${fmt(p.d)})"

  private def isS1Method(m: Measurement): Boolean = m.detect == S1Detect && m.repair == S1Repair

  /** The BD measurement rows of the EEG-outliers cell at every split of `cfg`. */
  private def bdRows(cfg: RunConfig): Seq[Measurement] = {
    val full = eeg.dirtyRows(ErrorType.Outliers)
    (0 until cfg.splits).flatMap(s => Experiment.runCell(eeg, ErrorType.Outliers, "", full, s, cfg))
      .filter(_.scenario == "BD")
  }

  /** Tables 6–9: one split, all models and methods, seeds = 1. */
  def tables6to9(): Unit = {
    val meas = bdRows(RunConfig(splits = 1, seeds = 1))

    println("\n===== Table 6: experiment specifications =====")
    println(s"  s1: (EEG, outliers, $S1Detect, $S1Repair, $S1Model, BD)")
    println(s"  s2: (EEG, outliers, $S1Detect, $S1Repair, BD)")
    println(s"  s3: (EEG, outliers, BD)")

    println("\n===== Table 7: s1 metric pair (paper: (0.634179, 0.668892)) =====")
    val s1 = meas.find(m => isS1Method(m) && m.model == S1Model).get
    println(f"  ${"Model"}%-22s val(dirty)  test(dirty) val(clean)  test(clean)")
    println(f"  ${S1Model}%-22s ${metrics(s1)}")
    println(s"  Metric pair: (${fmt(s1.test_b)}, ${fmt(s1.test_d)})")

    println("\n===== Table 8: s2 all-model table (paper pair: (0.862706, 0.956386)) =====")
    val t8 = meas.filter(isS1Method)
    println(f"  ${"Model"}%-22s val(dirty)  test(dirty) val(clean)  test(clean)")
    t8.sortBy(_.model).foreach(m => println(f"  ${m.model}%-22s ${metrics(m)}"))
    println(s"  Metric pair: ${pair(Relations.r2Pairs(t8).head)}")

    println("\n===== Table 9: s3 all-method table (paper pair: (0.937612, 0.969928)) =====")
    val r2 = Relations.r2Pairs(meas)
    println(f"  ${"Detect"}%-6s ${"Repair"}%-14s bestVal(clean)  test(bestDirty)  test(bestClean)")
    r2.sortBy(p => (p.spec(2), p.spec(3))).foreach { p =>
      println(f"  ${p.spec(2)}%-6s ${p.spec(3)}%-14s " +
        f"${fmt(p.bestVal)}        ${fmt(p.b)}         ${fmt(p.d)}")
    }
    println(s"  Metric pair: ${pair(Relations.r3Pairs(r2).head)}")
  }

  /** Tables 10–11: five random-search seeds at searchK = 2. */
  def tables10to11(): Unit = {
    val cfg = RunConfig(splits = 1, seeds = 5, searchK = 2,
      methodFilter = Some(Set((S1Detect, S1Repair))))
    val meas = bdRows(cfg)

    println("\n===== Table 10: 5 random-search seeds for s1 (averaged pair) =====")
    val lr = meas.filter(_.model == S1Model)
    println(f"  ${"seed"}%-5s val(dirty)  test(dirty) val(clean)  test(clean)")
    lr.sortBy(_.seed).foreach(m => println(f"  ${m.seed}%-5d ${metrics(m)}"))
    println(s"  Aggregated (mean) pair: ${pair(Relations.r1Pairs(lr).head)}")

    println("\n===== Table 11: 5 seeds for s2 (best-validation pair) =====")
    (0 until cfg.seeds).foreach { s =>
      println(f"  seed $s%-2d best pair: ${pair(Relations.r2Pairs(meas.filter(_.seed == s)).head)}")
    }
    println(s"  Selected pair: ${pair(Relations.r2Pairs(meas).head)}")
  }

  /** Tables 12–14: 20 splits for s1, t-tests and BY-corrected flag.
    * Returns (pairs, p-values, adjusted p-values, flag) for assertions.
    */
  def tables12to14(splits: Int = 20): (Seq[(Double, Double)], TTestResultView) = {
    val cfg = RunConfig(splits = splits, seeds = 1,
      models = Seq(S1Model), methodFilter = Some(Set((S1Detect, S1Repair))))
    val pairs = Relations.r1Pairs(bdRows(cfg)).sortBy(_.split).map(p => (p.b, p.d))

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
