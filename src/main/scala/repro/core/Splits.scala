package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.XxHash64Function
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, LongType, StringType}
import org.apache.spark.unsafe.types.UTF8String

/** Deterministic dataset splitting. The paper splits 70/30 at random with
  * per-split seeds (§4.1 step 1, §4.2.2); we realize each seeded split as a
  * hash bucket of the row id so it is reproducible across runs and engines.
  */
object Splits {

  /** 70/30 train/test split for a given split seed. */
  def trainTest(df: DataFrame, splitSeed: Int): (DataFrame, DataFrame) = {
    val bucket = pmod(xxhash64(col("rid"), lit(splitSeed)), lit(100))
    (df.filter(bucket < 70), df.filter(bucket >= 70))
  }

  /** A row's bucket in [0, 100) of the sub-train/validation split:
    * `pmod(xxhash64(rid, salt, "validation"), 100)`, hashed by Catalyst's
    * own function, chained from its seed 42 as `xxhash64` chains it.
    */
  def validationBucket(rid: Long, salt: Int): Int = {
    val h = Seq((rid, LongType), (salt, IntegerType), (UTF8String.fromString("validation"), StringType))
      .foldLeft(42L) { case (seed, (v, t)) => XxHash64Function.hash(v, t, seed) }
    Math.floorMod(h, 100L).toInt
  }

  /** 80/20 sub-train/validation split of a training arm's rows, each keyed
    * by its row id; both parts keep the rows' order. Stands in for the
    * paper's 5-fold CV; selection semantics unchanged — DESIGN.md §1.
    */
  def subVal[A](rows: Seq[A], salt: Int)(rid: A => Long): (Seq[A], Seq[A]) =
    rows.partition(r => validationBucket(rid(r), salt) < 80)
}
