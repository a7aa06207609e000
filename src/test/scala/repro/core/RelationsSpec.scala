package repro.core

import java.lang.Double.doubleToLongBits

import scala.util.Random

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec}
import repro.core.Relations.Pair

class RelationsSpec extends SparkSpec {

  import spark.implicits._

  private def m(dataset: String = "D", detect: String = "SD", repair: String = "delete",
                scenario: String = "BD", model: String = "knn", split: Int = 0,
                seed: Int = 0, valB: Double = 0.5, testB: Double = 0.5,
                valD: Double = 0.5, testD: Double = 0.5): Measurement =
    Measurement(dataset, "outliers", detect, repair, scenario, model, split, seed,
      valB, testB, valD, testD)

  test("r1Pairs averages the metric pair over search seeds") {
    val meas = Seq(
      m(seed = 0, testB = 0.60, testD = 0.70),
      m(seed = 1, testB = 0.62, testD = 0.74))
    val pair = Relations.r1Pairs(meas).head
    assert(math.abs(pair.b - 0.61) < 1e-12)
    assert(math.abs(pair.d - 0.72) < 1e-12)
  }

  test("r2Pairs selects per side the model with the best validation score") {
    val meas = Seq(
      m(model = "knn", valB = 0.9, testB = 0.80, valD = 0.5, testD = 0.55),
      m(model = "xgboost", valB = 0.7, testB = 0.99, valD = 0.8, testD = 0.85))
    val pair = Relations.r2Pairs(meas).head
    assert(pair.b == 0.80)       // knn wins the B side on val_b
    assert(pair.d == 0.85)       // xgboost wins the D side on val_d
    assert(pair.bestVal == 0.8)
  }

  test("r2Pairs also selects over seeds (paper Table 11)") {
    val meas = Seq(
      m(seed = 0, valD = 0.7, testD = 0.71),
      m(seed = 1, valD = 0.9, testD = 0.93))
    assert(Relations.r2Pairs(meas).head.d == 0.93)
  }

  test("r2Pairs matches a DuckDB window-argmax (oracle-checked)") {
    val rng = new scala.util.Random(3)
    val meas = (for {
      model <- Seq("knn", "xgboost", "naive_bayes")
      detect <- Seq("SD", "IQR"); split <- 0 to 2; seed <- 0 to 1
    } yield m(model = model, detect = detect, split = split, seed = seed,
        valB = rng.nextDouble(), testB = rng.nextDouble(),
        valD = rng.nextDouble(), testD = rng.nextDouble()))
    val got = Relations.r2Pairs(meas).map(p =>
      (p.spec(0), p.spec(1), p.spec(2), p.spec(3), p.spec(4), p.split, p.b, p.d, p.bestVal)
    ).toDF("dataset", "error_type", "detect", "repair", "scenario", "split", "b", "d", "best_val")
    Oracle.assertEquivalent(got,
      """WITH bs AS (
        |  SELECT dataset, error_type, detect, repair, scenario, split, test_b,
        |         ROW_NUMBER() OVER (PARTITION BY dataset, error_type, detect, repair, scenario, split
        |                            ORDER BY CAST(val_b AS DOUBLE) DESC, model ASC, CAST(seed AS INT) ASC) AS rn
        |  FROM meas),
        |ds AS (
        |  SELECT dataset, error_type, detect, repair, scenario, split, test_d, val_d,
        |         ROW_NUMBER() OVER (PARTITION BY dataset, error_type, detect, repair, scenario, split
        |                            ORDER BY CAST(val_d AS DOUBLE) DESC, model ASC, CAST(seed AS INT) ASC) AS rn
        |  FROM meas)
        |SELECT bs.dataset, bs.error_type, bs.detect, bs.repair, bs.scenario,
        |       CAST(bs.split AS INT) AS split,
        |       CAST(bs.test_b AS DOUBLE) AS b,
        |       CAST(ds.test_d AS DOUBLE) AS d,
        |       CAST(ds.val_d AS DOUBLE) AS best_val
        |FROM bs JOIN ds
        |  ON bs.dataset = ds.dataset AND bs.error_type = ds.error_type
        | AND bs.detect = ds.detect AND bs.repair = ds.repair
        | AND bs.scenario = ds.scenario AND bs.split = ds.split
        |WHERE bs.rn = 1 AND ds.rn = 1""".stripMargin,
      "meas" -> meas.toDF())
  }

  test("r3Pairs selects the cleaning method with the best clean-side validation") {
    val meas = Seq(
      m(detect = "SD", repair = "delete", valD = 0.95, testB = 0.93, testD = 0.97),
      m(detect = "IQR", repair = "impute_mean", valD = 0.94, testB = 0.86, testD = 0.95))
    val pair = Relations.r3Pairs(Relations.r2Pairs(meas)).head
    // Paper Table 9: SD+delete wins on validation; its pair is used.
    assert(pair.b == 0.93)
    assert(pair.d == 0.97)
  }

  /** A pair as comparable values: its doubles as their bits, so that equal
    * means bit for bit equal (NaN included).
    */
  private def bits(p: Pair, withBestVal: Boolean): (Seq[String], Int, Long, Long, Long) =
    (p.spec, p.split, doubleToLongBits(p.b), doubleToLongBits(p.d),
      if (withBestVal) doubleToLongBits(p.bestVal) else 0L)

  /** The pairs of a reference frame: `keys`, split, b, d and maybe best_val. */
  private def referencePairs(df: DataFrame, keys: Seq[String]): Seq[Pair] =
    df.collect().toSeq.map { r =>
      Pair(keys.map(k => r.getAs[String](k)), r.getAs[Int]("split"), r.getAs[Double]("b"),
        r.getAs[Double]("d"), if (df.columns.contains("best_val")) r.getAs[Double]("best_val") else Double.NaN)
    }

  test("r1Pairs, r2Pairs and r3Pairs equal the Spark SQL reference bit for bit") {
    val rng = new Random(11)
    // Scores drawn from this set tie across models, seeds and methods.
    val ties = Seq(0.5, 0.75, 0.0, -0.0, Double.NaN)
    def score(): Double = if (rng.nextInt(3) == 0) ties(rng.nextInt(ties.size)) else rng.nextDouble()
    // Spark ranks -0.0 and 0.0 equal: in odd trials every validation score is one of them.
    def zero(): Double = if (rng.nextBoolean()) 0.0 else -0.0
    for (trial <- 0 until 12) {
      val valScore: () => Double = if (trial % 2 == 1) zero _ else score _
      val seeds = 1 + trial % 3
      val models = rng.shuffle(Seq("adaboost", "knn", "naive_bayes", "xgboost")).take(2 + rng.nextInt(3))
      val methods = rng.shuffle(Seq(("SD", "delete"), ("IQR", "delete"), ("IQR", "impute_mean")))
        .take(1 + rng.nextInt(3))
      val meas = for {
        dataset <- Seq("D", "E"); (detect, repair) <- methods; scenario <- Seq("BD", "CD")
        model <- models; split <- 0 until 1 + rng.nextInt(3); seed <- 0 until seeds
        if rng.nextInt(10) != 0
      } yield m(dataset = dataset, detect = detect, repair = repair, scenario = scenario,
          model = model, split = split, seed = seed,
          valB = valScore(), testB = score(), valD = valScore(), testD = score())
      // One partition in seed order: the reference's avg sums as r1Pairs does.
      val df = spark.sparkContext.parallelize(rng.shuffle(meas).sortBy(_.seed), 1).toDF()
      val refR2 = RelationsReference.r2Pairs(df)
      val r2 = Relations.r2Pairs(meas)
      val checks = Seq(
        ("R1", Relations.r1Pairs(meas), RelationsReference.r1Pairs(df), Relations.R1Keys),
        ("R2", r2, refR2, Relations.R2Keys),
        ("R3", Relations.r3Pairs(r2), RelationsReference.r3Pairs(refR2), Relations.R3Keys))
      for ((name, got, want, keys) <- checks) withClue(s"trial $trial, $name: ") {
        def sorted(ps: Seq[Pair]) = ps.map(bits(_, withBestVal = name == "R2")).sortBy(_.toString)
        assert(got.nonEmpty && sorted(got) == sorted(referencePairs(want, keys)))
      }
    }
  }

  test("flags: clear improvement over 8 splits is P") {
    val meas = (0 until 8).map(s =>
      m(split = s, testB = 0.60 + 0.002 * s, testD = 0.70 + 0.002 * s)).toDF()
    val r1 = Relations.r1(meas)
    assert(r1.count() == 1)
    assert(r1.head().getAs[String]("flag") == Flag.Positive)
  }

  test("flags: clear degradation is N, noise is S") {
    val rng = new scala.util.Random(1)
    val neg = (0 until 8).map(s => m(dataset = "NEG", split = s,
      testB = 0.80 + 0.002 * s, testD = 0.70 + 0.002 * s))
    val noise = (0 until 8).map(s => m(dataset = "NOISE", split = s,
      testB = 0.7 + 0.05 * rng.nextGaussian(), testD = 0.7 + 0.05 * rng.nextGaussian()))
    val r1 = Relations.r1((neg ++ noise).toDF())
    val flags = r1.collect().map(r => r.getAs[String]("dataset") -> r.getAs[String]("flag")).toMap
    assert(flags("NEG") == Flag.Negative)
    assert(flags("NOISE") == Flag.Insignificant)
  }

  test("BY correction across the relation can drown a weak effect") {
    // One weakly positive spec among many null specs: raw p ~ 0.03 would be
    // P alone, but BY over 3 * 40 p-values pushes it above alpha.
    val rng = new scala.util.Random(2)
    val weak = (0 until 6).map(s => m(dataset = "WEAK", split = s,
      testB = 0.700, testD = 0.704 + 0.004 * rng.nextGaussian()))
    val nulls = (1 to 39).flatMap(i => (0 until 6).map(s =>
      m(dataset = s"NULL$i", split = s,
        testB = 0.7 + 0.03 * rng.nextGaussian(), testD = 0.7 + 0.03 * rng.nextGaussian())))
    val r1 = Relations.r1((weak ++ nulls).toDF())
    val weakRow = r1.filter($"dataset" === "WEAK").head()
    val rawSignificant = weakRow.getAs[Double]("p0") < 0.05
    val corrected = weakRow.getAs[Double]("p0_adj")
    if (rawSignificant) assert(corrected > weakRow.getAs[Double]("p0"))
  }

  test("flags do not depend on the order of the pairs") {
    val rng = new scala.util.Random(5)
    val meas = for (spec <- 0 until 6; s <- 0 until 8)
      yield m(dataset = s"D$spec", split = s, testB = rng.nextDouble(), testD = rng.nextDouble())
    val pairs = Relations.r1Pairs(meas)
    def flagged(ps: Seq[Pair]) = Relations.flags(ps, alpha = 0.05)
    val inOrder = flagged(pairs.sortBy(_.split))
    assert(inOrder.map(_.getAs[String](0)) == (0 until 6).map(i => s"D$i"))
    assert(flagged(pairs.sortBy(-_.split)) == inOrder)
    assert(flagged(new Random(7).shuffle(pairs)) == inOrder)
  }

  test("Flag.of: P/N need both adjusted p-values strictly below alpha") {
    assert(Flag.of(0.05, 0.01, 0.01, alpha = 0.05) == Flag.Insignificant)
    assert(Flag.of(0.01, 0.05, 1.0, alpha = 0.05) == Flag.Insignificant)
    assert(Flag.of(0.01, 0.04, 1.0, alpha = 0.05) == Flag.Positive)
    assert(Flag.of(0.01, 1.0, 0.04, alpha = 0.05) == Flag.Negative)
    assert(Flag.of(1.0, 1.0, 1.0, alpha = 0.05) == Flag.Insignificant)
  }

  test("flag columns carry the t-test and correction evidence") {
    val meas = (0 until 8).map(s => m(split = s, testB = 0.6, testD = 0.7 + 0.001 * s)).toDF()
    val cols = Relations.r1(meas).columns.toSet
    assert(Set("mean_diff", "p0", "p1", "p2", "p0_adj", "p1_adj", "p2_adj",
      "flag", "n_splits").subsetOf(cols))
    assert(Relations.R1Keys.toSet.subsetOf(cols))
  }

  test("r2/r3 relations drop the selected-away key attributes") {
    val meas = (0 until 4).map(s => m(split = s)).toDF()
    assert(!Relations.r2(meas).columns.contains("model"))
    val r3cols = Relations.r3(meas).columns
    assert(!r3cols.contains("detect") && !r3cols.contains("repair"))
  }
}
