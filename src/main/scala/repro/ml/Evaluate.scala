package repro.ml

/** Evaluation metrics (paper §4.1 step 4): accuracy for balanced datasets,
  * F1 of the minority (positive) class for class-imbalanced ones. A score is
  * a count over at most a few hundred (label, prediction) pairs, so it is a
  * local fold, not a Spark job.
  */
object Evaluate {

  /** Compute `metric` ("acc" | "f1") over (label, prediction) pairs. */
  def score(pairs: Seq[(Double, Double)], metric: String): Double = metric match {
    case "acc" => accuracy(pairs)
    case "f1"  => f1(pairs)
    case other => sys.error(s"unknown metric: $other")
  }

  /** Share of pairs whose prediction equals the label; 0 when empty. */
  def accuracy(pairs: Seq[(Double, Double)]): Double =
    if (pairs.isEmpty) 0.0
    else pairs.count { case (l, p) => p == l }.toDouble / pairs.size

  /** F1 of class 1.0 (the minority class in our imbalanced analogs). */
  def f1(pairs: Seq[(Double, Double)]): Double = {
    val tp = pairs.count(_ == ((1.0, 1.0))).toDouble
    val fp = pairs.count(_ == ((0.0, 1.0)))
    val fn = pairs.count(_ == ((1.0, 0.0)))
    if (tp == 0.0) 0.0
    else {
      val p = tp / (tp + fp)
      val r = tp / (tp + fn)
      2 * p * r / (p + r)
    }
  }
}
