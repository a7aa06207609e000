package repro.ml

import org.apache.spark.ml.attribute.AttributeGroup
import org.apache.spark.ml.linalg.{Vector, Vectors}

/** Shared toy featurized datasets for the model tests. */
object MLTestData {

  /** Two well-separated 2-D Gaussian blobs: label 1 around (+2,+2), label 0
    * around (-2,-2). Rows: (features, label).
    */
  def blobs(n: Int = 200, sep: Double = 2.0, seed: Long = 1): Seq[(Vector, Double)] = {
    val rng = new scala.util.Random(seed)
    (0 until n).map { i =>
      val l = if (i % 2 == 0) 1.0 else 0.0
      val c = if (l == 1.0) sep else -sep
      (Vectors.dense(c + rng.nextGaussian(), c + rng.nextGaussian()), l)
    }
  }

  /** XOR-ish pattern that a depth-1 learner cannot fit but boosted/deeper
    * learners can.
    */
  def xor(n: Int = 240, seed: Long = 2): Seq[(Vector, Double)] = {
    val rng = new scala.util.Random(seed)
    (0 until n).map { i =>
      val x = if (rng.nextBoolean()) 1.0 else -1.0
      val y = if (rng.nextBoolean()) 1.0 else -1.0
      val l = if (x * y > 0) 1.0 else 0.0
      (Vectors.dense(x + 0.1 * rng.nextGaussian(), y + 0.1 * rng.nextGaussian()), l)
    }
  }

  /** Toy rows as training rows with two continuous slots. */
  def train(rows: Seq[(Vector, Double)]): Features.Train =
    Features.Train(rows, new AttributeGroup(Features.FeaturesCol, 2))

  /** (label, prediction) pairs of a local predictor over featurized rows. */
  def scored(predict: Vector => Double, rows: Seq[(Vector, Double)]): Seq[(Double, Double)] =
    rows.map { case (v, l) => (l, predict(v)) }
}
