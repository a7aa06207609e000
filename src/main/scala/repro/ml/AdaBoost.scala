package repro.ml

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.ml.linalg.Vector

/** From-scratch binary AdaBoost (discrete SAMME; paper §3.3 — MLlib has no
  * AdaBoost). Base learners are weighted gini trees grown on the driver
  * (`WeightedTree`), each the tree MLlib's `DecisionTreeClassifier` fits on
  * the weighted rows. The sample weights, the weighted error and the
  * reweighting are computed in a driver array, so a fit starts no Spark job.
  */
object AdaBoost {

  /** Fit on featurized training rows (features, label); returns a
    * local predictor that takes the sign of the alpha-weighted tree votes.
    */
  def fit(rows: Seq[(Vector, Double)], rounds: Int, baseDepth: Int): Vector => Double =
    boost(rows, rounds)(w => WeightedTree.fit(rows, w, baseDepth).predict)

  /** SAMME over `rounds` base learners: `learn` fits one on the rows under
    * sample weights that sum to 1 (a copy of the driver array).
    */
  private[ml] def boost(rows: Seq[(Vector, Double)], rounds: Int)(
      learn: Array[Double] => (Vector => Double)): Vector => Double = {
    val n = rows.length
    require(n > 0, "AdaBoost: empty training set")
    val w = Array.fill(n)(1.0 / n)
    val trees = ArrayBuffer.empty[(Vector => Double, Double)]

    var t = 0
    var stop = false
    while (t < rounds && !stop) {
      val model = learn(w.clone())
      val miss = rows.map { case (v, l) => model(v) != l }
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
      val score = fitted.foldLeft(0.0) { case (s, (m, a)) => s + a * (m(v) * 2.0 - 1.0) }
      if (score > 0) 1.0 else 0.0
    }
  }
}
