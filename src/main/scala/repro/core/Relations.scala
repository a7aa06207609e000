package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.stats.{FDR, TTest}

/** Builds the CleanML relations R1/R2/R3 (paper §2.1) from the raw
  * measurement grid.
  *
  *   - R1: per specification, metrics averaged over search seeds (§4.2.1)
  *   - R2: model selection — per side, the (model, seed) with the best
  *     validation score provides the test metric (§2.1, Tables 8/11)
  *   - R3: cleaning-method selection on top of R2 — the method whose
  *     clean-side best validation score is highest (§2.1, Table 9)
  *
  * Flags come from paired two-/upper-/lower-tailed t-tests over the
  * per-split metric pairs, with Benjamini–Yekutieli correction applied
  * jointly to all 3·|R| p-values of a relation (§4.2.2–4.3).
  */
object Relations {

  val R1Keys: Seq[String] = Seq("dataset", "error_type", "detect", "repair", "model", "scenario")
  val R2Keys: Seq[String] = Seq("dataset", "error_type", "detect", "repair", "scenario")
  val R3Keys: Seq[String] = Seq("dataset", "error_type", "scenario")

  /** R1 metric pairs: one (b, d) pair per spec and split (seed average). */
  def r1Pairs(meas: DataFrame): DataFrame =
    meas.groupBy((R1Keys :+ "split").map(col): _*)
      .agg(avg(col("test_b")).as("b"), avg(col("test_d")).as("d"))

  /** R2 metric pairs: per spec-without-model and split, each side takes the
    * test metric of the (model, seed) with the best validation score
    * (ties break by model then seed for determinism). `best_val` carries
    * the clean-side winning validation score for R3's method selection.
    */
  def r2Pairs(meas: DataFrame): DataFrame = {
    val keys = (R2Keys :+ "split").map(col)
    val wb = Window.partitionBy(keys: _*)
      .orderBy(col("val_b").desc, col("model").asc, col("seed").asc)
    val wd = Window.partitionBy(keys: _*)
      .orderBy(col("val_d").desc, col("model").asc, col("seed").asc)
    val bSide = meas.withColumn("__rn", row_number().over(wb))
      .filter(col("__rn") === 1)
      .select(keys :+ col("test_b").as("b"): _*)
    val dSide = meas.withColumn("__rn", row_number().over(wd))
      .filter(col("__rn") === 1)
      .select(keys ++ Seq(col("test_d").as("d"), col("val_d").as("best_val")): _*)
    bSide.join(dSide, R2Keys :+ "split")
  }

  /** R3 metric pairs: per (dataset, error, scenario, split), the method
    * with the best clean-side validation score provides the pair.
    */
  def r3Pairs(r2: DataFrame): DataFrame = {
    val keys = (R3Keys :+ "split").map(col)
    val w = Window.partitionBy(keys: _*)
      .orderBy(col("best_val").desc, col("detect").asc, col("repair").asc)
    r2.withColumn("__rn", row_number().over(w))
      .filter(col("__rn") === 1)
      .select(keys ++ Seq(col("b"), col("d")): _*)
  }

  /** Group pairs by spec keys on the driver, run the three paired t-tests
    * per spec, apply BY over all p-values of the relation, and emit the
    * flag per paper rule (`Flag.of`). Each spec's pairs enter its t-test in
    * split order; the specs are in key order.
    */
  def flags(pairs: DataFrame, keys: Seq[String], alpha: Double): DataFrame = {
    val spark = pairs.sparkSession
    val grouped = pairs.select((keys ++ Seq("split", "b", "d")).map(col): _*).collect().toSeq
      .groupBy(r => keys.indices.map(r.getString)).toSeq
      .sortBy(_._1)(Ordering.Implicits.seqOrdering[IndexedSeq, String])

    val stats = grouped.map { case (keyVals, rs) =>
      val ps = rs.sortBy(_.getInt(keys.size)).map(p => (p.getDouble(keys.size + 1), p.getDouble(keys.size + 2)))
      (keyVals, TTest.paired(ps))
    }
    val rawP = stats.flatMap { case (_, t) => Seq(t.p0, t.p1, t.p2) }
    val adjP = FDR.benjaminiYekutieli(rawP)

    val rows = stats.zipWithIndex.map { case ((keyVals, t), i) =>
      val (a0, a1, a2) = (adjP(3 * i), adjP(3 * i + 1), adjP(3 * i + 2))
      Row.fromSeq(keyVals ++ Seq(t.meanDiff, t.p0, t.p1, t.p2, a0, a1, a2,
        Flag.of(a0, a1, a2, alpha), t.n))
    }
    val schema = StructType(
      keys.map(StructField(_, StringType, nullable = false)) ++
        Seq("mean_diff", "p0", "p1", "p2", "p0_adj", "p1_adj", "p2_adj")
          .map(StructField(_, DoubleType, nullable = false)) ++
        Seq(StructField("flag", StringType, nullable = false),
            StructField("n_splits", IntegerType, nullable = false)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toIndexedSeq, 2), schema)
  }

  def r1(meas: DataFrame, alpha: Double = 0.05): DataFrame = flags(r1Pairs(meas), R1Keys, alpha)
  def r2(meas: DataFrame, alpha: Double = 0.05): DataFrame = flags(r2Pairs(meas), R2Keys, alpha)
  def r3(meas: DataFrame, alpha: Double = 0.05): DataFrame = flags(r3Pairs(r2Pairs(meas)), R3Keys, alpha)
}
