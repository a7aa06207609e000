package repro.ml

import scala.util.Random

import org.apache.spark.ml.classification.{DecisionTreeClassifier, GBTClassifier, LogisticRegression, RandomForestClassifier}
import org.apache.spark.ml.linalg.Vector

/** The seven classifiers of the benchmark (paper §3.3) behind one adapter
  * API. Four are MLlib estimators (GBT standing in for XGBoost, see
  * DESIGN.md §1); KNN, AdaBoost, and Gaussian NB are built from scratch
  * and fit on the driver.
  */
trait ModelAdapter {
  def name: String

  /** Default hyperparameters (used when searchK = 1). */
  def defaults: Map[String, Double]

  /** Random-search space; empty means the model has nothing to tune. */
  def grid: Map[String, Seq[Double]]

  /** Draw one hyperparameter configuration. */
  def sample(rng: Random): Map[String, Double] =
    if (grid.isEmpty) defaults
    else defaults ++ grid.map { case (k, vs) => k -> vs(rng.nextInt(vs.size)) }

  /** Fit on featurized training rows; returns a local predictor from a
    * feature vector to a label. Only the fit may run Spark jobs; the
    * predictor runs on the driver.
    */
  def fit(train: Features.Train, params: Map[String, Double], seed: Long): Vector => Double
}

object Models {

  object LogisticRegressionAdapter extends ModelAdapter {
    val name = "logistic_regression"
    val defaults = Map("regParam" -> 0.01, "maxIter" -> 20.0)
    val grid = Map("regParam" -> Seq(0.0, 0.01, 0.1))
    def fit(train: Features.Train, params: Map[String, Double], seed: Long): Vector => Double =
      new LogisticRegression()
        .setFeaturesCol(Features.FeaturesCol).setLabelCol("label")
        .setMaxIter(params("maxIter").toInt).setRegParam(params("regParam"))
        .fit(train.frame).predict
  }

  object KNNAdapter extends ModelAdapter {
    val name = "knn"
    val defaults = Map("k" -> 5.0)
    val grid = Map("k" -> Seq(3.0, 5.0, 9.0))
    def fit(train: Features.Train, params: Map[String, Double], seed: Long): Vector => Double =
      KNN.fit(train.rows, params("k").toInt)
  }

  object DecisionTreeAdapter extends ModelAdapter {
    val name = "decision_tree"
    val defaults = Map("maxDepth" -> 5.0)
    val grid = Map("maxDepth" -> Seq(3.0, 5.0, 8.0))
    def fit(train: Features.Train, params: Map[String, Double], seed: Long): Vector => Double =
      new DecisionTreeClassifier()
        .setFeaturesCol(Features.FeaturesCol).setLabelCol("label")
        .setMaxDepth(params("maxDepth").toInt).setSeed(seed)
        .fit(train.frame).predict
  }

  object RandomForestAdapter extends ModelAdapter {
    val name = "random_forest"
    val defaults = Map("numTrees" -> 12.0, "maxDepth" -> 5.0)
    val grid = Map("numTrees" -> Seq(8.0, 16.0), "maxDepth" -> Seq(4.0, 6.0))
    def fit(train: Features.Train, params: Map[String, Double], seed: Long): Vector => Double =
      new RandomForestClassifier()
        .setFeaturesCol(Features.FeaturesCol).setLabelCol("label")
        .setNumTrees(params("numTrees").toInt).setMaxDepth(params("maxDepth").toInt)
        .setSeed(seed)
        .fit(train.frame).predict
  }

  object AdaBoostAdapter extends ModelAdapter {
    val name = "adaboost"
    val defaults = Map("rounds" -> 3.0, "baseDepth" -> 2.0)
    val grid = Map("rounds" -> Seq(3.0, 5.0))
    def fit(train: Features.Train, params: Map[String, Double], seed: Long): Vector => Double =
      AdaBoost.fit(train.rows, params("rounds").toInt, params("baseDepth").toInt)
  }

  /** XGBoost stand-in: MLlib gradient-boosted trees (DESIGN.md §1). */
  object XGBoostAdapter extends ModelAdapter {
    val name = "xgboost"
    val defaults = Map("maxIter" -> 8.0, "maxDepth" -> 3.0, "stepSize" -> 0.2)
    val grid = Map("maxIter" -> Seq(6.0, 10.0))
    def fit(train: Features.Train, params: Map[String, Double], seed: Long): Vector => Double =
      new GBTClassifier()
        .setFeaturesCol(Features.FeaturesCol).setLabelCol("label")
        .setMaxIter(params("maxIter").toInt).setMaxDepth(params("maxDepth").toInt)
        .setStepSize(params("stepSize")).setSeed(seed)
        .fit(train.frame).predict
  }

  object NaiveBayesAdapter extends ModelAdapter {
    val name = "naive_bayes"
    val defaults = Map.empty[String, Double]
    val grid = Map.empty[String, Seq[Double]]
    def fit(train: Features.Train, params: Map[String, Double], seed: Long): Vector => Double =
      GaussianNB.fit(train.rows)
  }

  val all: Seq[ModelAdapter] = Seq(
    AdaBoostAdapter, DecisionTreeAdapter, KNNAdapter, LogisticRegressionAdapter,
    NaiveBayesAdapter, RandomForestAdapter, XGBoostAdapter)

  def byName(n: String): ModelAdapter =
    all.find(_.name == n).getOrElse(sys.error(s"unknown model: $n"))
}
