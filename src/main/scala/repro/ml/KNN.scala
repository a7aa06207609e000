package repro.ml

import org.apache.spark.ml.linalg.Vector

import repro.stats.Descriptive

/** From-scratch k-nearest-neighbors classifier (paper §3.3; MLlib has no
  * KNN). "Training" keeps the (features, label) rows as arrays; prediction
  * is an exact Euclidean majority vote over them. Suited to
  * the benchmark's small per-dataset scale.
  */
object KNN {

  /** Fit on featurized training rows; returns a local predictor. Ties
    * break toward the smaller label for determinism.
    */
  def fit(train: Seq[(Vector, Double)], k: Int): Vector => Double = {
    val data = train.map { case (v, l) => (v.toArray, l) }
    require(data.nonEmpty, "KNN: empty training set")
    val kEff = math.min(k, data.length)

    v => {
      val x = v.toArray
      val neighbors = data
        .map { case (t, l) =>
          var s = 0.0
          var i = 0
          val n = math.min(x.length, t.length)
          while (i < n) { val d = x(i) - t(i); s += d * d; i += 1 }
          (s, l)
        }
        .sortBy(_._1)
        .take(kEff)
      Descriptive.mostFrequent(Descriptive.counts(neighbors.map(_._2)))
    }
  }
}
