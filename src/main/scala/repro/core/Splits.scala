package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.expressions.XxHash64Function
import org.apache.spark.sql.types.{DataType, IntegerType, LongType, StringType}
import org.apache.spark.unsafe.types.UTF8String

import repro.data.Rows

/** Deterministic dataset splitting. The paper splits 70/30 at random with
  * per-split seeds (§4.1 step 1, §4.2.2); we realize each seeded split as a
  * hash bucket of the row id so it is reproducible across runs and engines.
  */
object Splits {

  /** `pmod(xxhash64(rid, keys...), 100)`, hashed by Catalyst's own
    * function, chained from its seed 42 as `xxhash64` chains its arguments.
    */
  private def bucket(rid: Long, keys: (Any, DataType)*): Int = {
    val h = ((rid, LongType) +: keys).foldLeft(42L) { case (seed, (v, t)) => XxHash64Function.hash(v, t, seed) }
    Math.floorMod(h, 100L).toInt
  }

  /** A row's bucket in [0, 100) of split `splitSeed`'s train/test split:
    * `pmod(xxhash64(rid, splitSeed), 100)`.
    */
  def trainBucket(rid: Long, splitSeed: Int): Int = bucket(rid, (splitSeed, IntegerType))

  /** 70/30 train/test split of a dataset's rows for a given split seed;
    * both parts keep the rows' order.
    */
  def trainTest(rows: Seq[Row], splitSeed: Int): (Seq[Row], Seq[Row]) =
    rows.partition(r => trainBucket(r.getAs[Long]("rid"), splitSeed) < 70)

  /** `trainTest` of a frame's collected rows, each part one partition. */
  def trainTest(df: DataFrame, splitSeed: Int): (DataFrame, DataFrame) = {
    val (train, test) = trainTest(df.collect().toSeq, splitSeed)
    (Rows.frame(df.sparkSession, df.schema, train), Rows.frame(df.sparkSession, df.schema, test))
  }

  /** A row's bucket in [0, 100) of the sub-train/validation split:
    * `pmod(xxhash64(rid, salt, "validation"), 100)`.
    */
  def validationBucket(rid: Long, salt: Int): Int =
    bucket(rid, (salt, IntegerType), (UTF8String.fromString("validation"), StringType))

  /** 80/20 sub-train/validation split of a training arm's rows, each keyed
    * by its row id; both parts keep the rows' order. Stands in for the
    * paper's 5-fold CV; selection semantics unchanged — DESIGN.md §1.
    */
  def subVal[A](rows: Seq[A], salt: Int)(rid: A => Long): (Seq[A], Seq[A]) =
    rows.partition(r => validationBucket(rid(r), salt) < 80)
}
