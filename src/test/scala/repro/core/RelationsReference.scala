package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core.Relations.{R1Keys, R2Keys, R3Keys}

/** The metric pairs of R1/R2/R3 as Spark SQL builds them: an `avg` over the
  * seeds, and `row_number` windows for the selections. The oracle that
  * `Relations`' driver-side pairs are checked against; run on a
  * one-partition frame in seed order, its `avg` sums as theirs does.
  */
object RelationsReference {

  /** R1: one (b, d) pair per spec and split, averaged over the seeds. */
  def r1Pairs(meas: DataFrame): DataFrame =
    meas.groupBy((R1Keys :+ "split").map(col): _*)
      .agg(avg(col("test_b")).as("b"), avg(col("test_d")).as("d"))

  /** R2: per spec-without-model and split, each side takes the test metric
    * of the (model, seed) with the best validation score, ties broken by
    * model then seed; `best_val` is the clean side's winning score.
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

  /** R3: per (dataset, error, scenario, split), the method with the best
    * `best_val` provides the pair, ties broken by detect then repair.
    */
  def r3Pairs(r2: DataFrame): DataFrame = {
    val keys = (R3Keys :+ "split").map(col)
    val w = Window.partitionBy(keys: _*)
      .orderBy(col("best_val").desc, col("detect").asc, col("repair").asc)
    r2.withColumn("__rn", row_number().over(w))
      .filter(col("__rn") === 1)
      .select(keys ++ Seq(col("b"), col("d")): _*)
  }
}
