package repro.ml

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.ml.classification.{DecisionTreeClassificationModel, DecisionTreeClassifier}
import org.apache.spark.ml.linalg.{SQLDataTypes, Vector}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}

import repro.data.Rows

/** From-scratch binary AdaBoost (discrete SAMME; paper §3.3 — MLlib has no
  * AdaBoost). Base learners are weighted MLlib decision trees. The sample
  * weights of the training rows live in a driver array:
  * the weighted error and the reweighting are computed locally from each
  * tree's `predict`, and only the weighted tree fits run as Spark jobs.
  */
object AdaBoost {

  private val WeightedSchema = StructType(Seq(
    StructField(Features.FeaturesCol, SQLDataTypes.VectorType),
    StructField("label", DoubleType, nullable = false),
    StructField("__w", DoubleType, nullable = false)))

  /** The frame a round's tree is fit on: the rows with their weights as one
    * partition, in order, as `Features.Train.frame` holds them. The
    * features carry no ML attributes, so every slot is continuous.
    */
  def weighted(rows: Seq[(Vector, Double)], w: Array[Double]): DataFrame =
    Rows.frame(SparkSession.active, WeightedSchema, rows.zip(w).map { case ((v, l), wi) => Row(v, l, wi) })

  /** Fit on featurized training rows (features, label); returns a
    * local predictor that takes the sign of the alpha-weighted tree votes.
    */
  def fit(rows: Seq[(Vector, Double)], rounds: Int, baseDepth: Int, seed: Long): Vector => Double = {
    val n = rows.length
    require(n > 0, "AdaBoost: empty training set")
    val w = Array.fill(n)(1.0 / n)
    val trees = ArrayBuffer.empty[(DecisionTreeClassificationModel, Double)]

    var t = 0
    var stop = false
    while (t < rounds && !stop) {
      val model = new DecisionTreeClassifier()
        .setFeaturesCol(Features.FeaturesCol).setLabelCol("label")
        .setWeightCol("__w").setMaxDepth(baseDepth).setSeed(seed + t)
        .fit(weighted(rows, w))
      val miss = rows.map { case (v, l) => model.predict(v) != l }
      val err = w.indices.collect { case i if miss(i) => w(i) }.sum / w.sum
      if (err <= 1e-10) {
        // Perfect base learner: take it with a large vote and stop.
        trees += ((model, 5.0)); stop = true
      } else if (err >= 0.5) {
        // No better than chance under current weights; keep earlier rounds
        // (or this one alone with a tiny vote if it is the first).
        if (trees.isEmpty) trees += ((model, 1e-3))
        stop = true
      } else {
        val alpha = 0.5 * math.log((1.0 - err) / err)
        trees += ((model, alpha))
        // StrictMath.exp, as Spark SQL's exp evaluates it.
        w.indices.foreach(i => w(i) *= StrictMath.exp(if (miss(i)) alpha else -alpha))
        val total = w.sum
        w.indices.foreach(i => w(i) /= total)
      }
      t += 1
    }
    val fitted = trees.toSeq

    v => {
      val score = fitted.foldLeft(0.0) { case (s, (m, a)) => s + a * (m.predict(v) * 2.0 - 1.0) }
      if (score > 0) 1.0 else 0.0
    }
  }
}
