package repro.bench

import repro.SparkSpec
import repro.core.{Flag, Walkthrough}

/** Reproduces the paper's worked example (Tables 6–14) end-to-end: the
  * s1/s2/s3 specifications on the EEG-outliers cell, random-search seed
  * aggregation, the 20-split metric pairs, and the t-test + BY flag.
  */
class Tables06to14WalkthroughBench extends SparkSpec {

  test("Tables 6-9: one-split walkthrough (spec, model table, method table)") {
    Walkthrough.tables6to9()
  }

  test("Tables 10-11: five random-search seeds with searchK=2") {
    Walkthrough.tables10to11()
  }

  test("Tables 12-14: 20 splits, t-tests, BY correction — flag is P") {
    val splits = sys.env.get("CLEANML_WALKTHROUGH_SPLITS").map(_.toInt).getOrElse(20)
    val (pairs, t) = Walkthrough.tables12to14(splits)
    assert(pairs.size == splits)
    // Paper Table 12: cleaning improves accuracy on (nearly) every split...
    val improved = pairs.count { case (b, d) => d > b }
    assert(improved >= (0.8 * splits).toInt, s"improved on $improved/$splits splits")
    // ...Table 13: p0 and p1 significant, p2 ~ 1...
    assert(t.p0 < 0.05 && t.p1 < 0.05, s"p0=${t.p0} p1=${t.p1}")
    assert(t.p2 > 0.5, s"p2=${t.p2}")
    // ...Table 14: still P after BY correction.
    assert(t.flag == Flag.Positive)
  }
}
