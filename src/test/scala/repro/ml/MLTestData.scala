package repro.ml

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Shared toy featurized datasets for the model tests. */
object MLTestData {

  /** Two well-separated 2-D Gaussian blobs: label 1 around (+2,+2), label 0
    * around (-2,-2). Columns: rid, features, label.
    */
  def blobs(spark: SparkSession, n: Int = 200, sep: Double = 2.0,
            seed: Long = 1): DataFrame = {
    val rng = new scala.util.Random(seed)
    val rows = (0 until n).map { i =>
      val l = if (i % 2 == 0) 1.0 else 0.0
      val c = if (l == 1.0) sep else -sep
      (i.toLong, Vectors.dense(c + rng.nextGaussian(), c + rng.nextGaussian()), l)
    }
    spark.createDataFrame(rows).toDF("rid", Features.FeaturesCol, "label")
  }

  /** XOR-ish pattern that a depth-1 learner cannot fit but boosted/deeper
    * learners can.
    */
  def xor(spark: SparkSession, n: Int = 240, seed: Long = 2): DataFrame = {
    val rng = new scala.util.Random(seed)
    val rows = (0 until n).map { i =>
      val x = if (rng.nextBoolean()) 1.0 else -1.0
      val y = if (rng.nextBoolean()) 1.0 else -1.0
      val l = if (x * y > 0) 1.0 else 0.0
      (i.toLong, Vectors.dense(x + 0.1 * rng.nextGaussian(), y + 0.1 * rng.nextGaussian()), l)
    }
    spark.createDataFrame(rows).toDF("rid", Features.FeaturesCol, "label")
  }

  /** (label, prediction) pairs of a local predictor over a featurized frame. */
  def scored(predict: Vector => Double, df: DataFrame): Seq[(Double, Double)] =
    Features.rows(df).map { case (v, l) => (l, predict(v)) }
}
