package repro.ml

import org.apache.spark.ml.linalg.Vector

import repro.stats.Descriptive

/** From-scratch Gaussian naive Bayes (paper §3.3). Implemented directly
  * (rather than via MLlib's multinomial NB) because standardized features
  * are negative and one-hot columns can be constant within a class —
  * handled here with scikit-learn-style variance smoothing
  * (eps = 1e-9 · max variance). Fitting computes per-class priors, means
  * and variances of the training rows on the driver; the returned
  * predictor closes over them.
  */
object GaussianNB {

  def fit(train: Seq[(Vector, Double)]): Vector => Double = {
    val data = train.map { case (v, l) => (v.toArray, l) }
    require(data.nonEmpty, "GaussianNB: empty training set")
    val dim = data.head._1.length
    val byClass = data.groupBy(_._2)
    val n = data.length.toDouble

    val params: Map[Double, (Double, Array[Double], Array[Double])] =
      byClass.map { case (cls, rows) =>
        val xs = rows.map(_._1).toArray
        val mu = Array.tabulate(dim)(i => Descriptive.mean(xs.map(_(i))))
        val vr = Array.tabulate(dim)(i => Descriptive.mean(xs.map { x => val d = x(i) - mu(i); d * d }))
        cls -> (math.log(rows.length / n), mu, vr)
      }

    val maxVar = params.values.flatMap(_._3).foldLeft(0.0)(math.max)
    val eps = math.max(1e-9 * maxVar, 1e-12)

    v => {
      val x = v.toArray
      params.toSeq
        .map { case (cls, (logPrior, mu, vr)) =>
          var ll = logPrior
          var i = 0
          val d = math.min(x.length, mu.length)
          while (i < d) {
            val s2 = vr(i) + eps
            val diff = x(i) - mu(i)
            ll += -0.5 * math.log(2 * math.Pi * s2) - diff * diff / (2 * s2)
            i += 1
          }
          (ll, cls)
        }
        .maxBy { case (ll, cls) => (ll, -cls) }._2
    }
  }
}
