package repro.core

import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.types._

import repro.stats.{FDR, TTest}

/** Builds the CleanML relations R1/R2/R3 (paper §2.1) from the measurement
  * rows, on the driver.
  *
  *   - R1: per specification, metrics averaged over search seeds (§4.2.1)
  *   - R2: model selection — per side, the (model, seed) with the best
  *     validation score provides the test metric (§2.1, Tables 8/11)
  *   - R3: cleaning-method selection on top of R2 — the method whose
  *     clean-side best validation score is highest (§2.1, Table 9)
  *
  * Flags come from paired two-/upper-/lower-tailed t-tests over the
  * per-split metric pairs, with Benjamini–Yekutieli correction applied
  * to all 3·|R| p-values of a relation together (§4.2.2–4.3). The pairs
  * equal, bit for bit, those of a Spark SQL `avg` and ranking windows over
  * a one-partition frame in seed order (`RelationsReference` in the tests).
  */
object Relations {

  val R1Keys: Seq[String] = Seq("dataset", "error_type", "detect", "repair", "model", "scenario")
  val R2Keys: Seq[String] = Seq("dataset", "error_type", "detect", "repair", "scenario")
  val R3Keys: Seq[String] = Seq("dataset", "error_type", "scenario")

  /** One metric pair of a relation: its spec (the values of the relation's
    * keys, in key order), the split and the (b, d) pair. `bestVal` is the
    * clean side's winning validation score of an R2 or R3 pair; NaN in R1.
    */
  final case class Pair(spec: Seq[String], split: Int, b: Double, d: Double,
                        bestVal: Double = Double.NaN)

  /** Spark SQL's `ORDER BY score DESC, t1, t2`, whose first row R2 and R3
    * select: NaN above every number, -0.0 equal to 0.0, and the names (all
    * ASCII) in `String` order.
    */
  private def ranking[T: Ordering]: Ordering[(Double, String, T)] = {
    val score: Ordering[Double] = (x, y) => if (x == y) 0 else java.lang.Double.compare(x, y)
    Ordering.Tuple3(score.reverse, Ordering.String, Ordering[T])
  }

  /** R1 metric pairs: one (b, d) pair per spec and split, each side's test
    * metric averaged over the seeds as Spark's `avg` does: summed from 0.0
    * in seed order, then divided by n.
    */
  def r1Pairs(meas: Seq[Measurement]): Seq[Pair] =
    meas.groupBy(m => (Seq(m.dataset, m.error_type, m.detect, m.repair, m.model, m.scenario), m.split))
      .toSeq.map { case ((spec, split), ms) =>
        def avg(f: Measurement => Double) = ms.sortBy(_.seed).foldLeft(0.0)((s, m) => s + f(m)) / ms.size
        Pair(spec, split, avg(_.test_b), avg(_.test_d))
      }

  /** R2 metric pairs: per spec-without-model and split, each side takes the
    * test metric of the (model, seed) with the best validation score (ties
    * break by model then seed for determinism). `bestVal` carries the
    * clean-side winning validation score for R3's method selection.
    */
  def r2Pairs(meas: Seq[Measurement]): Seq[Pair] =
    meas.groupBy(m => (Seq(m.dataset, m.error_type, m.detect, m.repair, m.scenario), m.split))
      .toSeq.map { case ((spec, split), ms) =>
        val b = ms.minBy(m => (m.val_b, m.model, m.seed))(ranking[Int])
        val d = ms.minBy(m => (m.val_d, m.model, m.seed))(ranking[Int])
        Pair(spec, split, b.test_b, d.test_d, d.val_d)
      }

  /** R3 metric pairs from R2's: per (dataset, error, scenario, split), the
    * method with the best clean-side validation score provides the pair
    * (ties break by detect then repair).
    */
  def r3Pairs(r2: Seq[Pair]): Seq[Pair] =
    r2.groupBy(p => (Seq(p.spec(0), p.spec(1), p.spec(4)), p.split)).toSeq.map { case ((spec, _), ps) =>
      ps.minBy(p => (p.bestVal, p.spec(2), p.spec(3)))(ranking[String]).copy(spec = spec)
    }

  /** Group pairs by spec, run the three paired t-tests per spec, apply BY
    * over all p-values of the relation, and emit the flag per paper rule
    * (`Flag.of`): one row per spec, in spec order. Each spec's pairs enter
    * its t-test in split order.
    */
  def flags(pairs: Seq[Pair], alpha: Double): Seq[Row] = {
    val stats = pairs.groupBy(_.spec).toSeq
      .sortBy(_._1)(Ordering.Implicits.seqOrdering[Seq, String])
      .map { case (spec, ps) => (spec, TTest.paired(ps.sortBy(_.split).map(p => (p.b, p.d)))) }
    val rawP = stats.flatMap { case (_, t) => Seq(t.p0, t.p1, t.p2) }
    val adjP = FDR.benjaminiYekutieli(rawP)

    stats.zipWithIndex.map { case ((spec, t), i) =>
      val (a0, a1, a2) = (adjP(3 * i), adjP(3 * i + 1), adjP(3 * i + 2))
      Row.fromSeq(spec ++ Seq(t.meanDiff, t.p0, t.p1, t.p2, a0, a1, a2,
        Flag.of(a0, a1, a2, alpha), t.n))
    }
  }

  /** The flagged relation of `pairs` over `keys`: a frame of local rows, so
    * building it starts no Spark job.
    */
  def relation(spark: SparkSession, keys: Seq[String], pairs: Seq[Pair], alpha: Double): DataFrame = {
    val columns = keys.map(_ -> StringType) ++
      Seq("mean_diff", "p0", "p1", "p2", "p0_adj", "p1_adj", "p2_adj").map(_ -> DoubleType) ++
      Seq("flag" -> StringType, "n_splits" -> IntegerType)
    val schema = StructType(columns.map { case (c, t) => StructField(c, t, nullable = false) })
    spark.createDataFrame(spark.sparkContext.parallelize(flags(pairs, alpha), 2), schema)
  }

  // Frame adapters: collect the measurement frame and take the row path.
  private def rows(meas: DataFrame) = meas.as(Encoders.product[Measurement]).collect().toSeq
  def r1(meas: DataFrame, alpha: Double = 0.05): DataFrame =
    relation(meas.sparkSession, R1Keys, r1Pairs(rows(meas)), alpha)
  def r2(meas: DataFrame, alpha: Double = 0.05): DataFrame =
    relation(meas.sparkSession, R2Keys, r2Pairs(rows(meas)), alpha)
  def r3(meas: DataFrame, alpha: Double = 0.05): DataFrame =
    relation(meas.sparkSession, R3Keys, r3Pairs(r2Pairs(rows(meas))), alpha)
}
