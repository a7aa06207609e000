package repro.ml

import scala.util.Random

import org.apache.spark.ml.classification.{DecisionTreeClassifier, GBTClassifier, LogisticRegression, RandomForestClassifier}
import org.apache.spark.ml.Transformer
import org.apache.spark.ml.linalg.Vector

import repro.SparkSpec
import repro.core.RunConfig

class ModelsSpec extends SparkSpec {

  test("registry has the paper's seven models") {
    assert(Models.all.map(_.name) == RunConfig.AllModels)
    assert(Models.all.size == 7)
  }

  test("byName resolves every model and rejects unknowns") {
    RunConfig.AllModels.foreach(n => assert(Models.byName(n).name == n))
    intercept[RuntimeException] { Models.byName("svm") }
  }

  test("every model reaches >85% accuracy on separable blobs") {
    val train = MLTestData.blobs(n = 200, seed = 30)
    val test  = MLTestData.blobs(n = 80, seed = 31)
    Models.all.foreach { m =>
      val predict = m.fit(MLTestData.train(train), m.defaults, seed = 7)
      val acc = Evaluate.accuracy(MLTestData.scored(predict, test))
      assert(acc > 0.85, s"${m.name}: acc=$acc")
    }
  }

  test("every model emits binary predictions") {
    val train = MLTestData.blobs(n = 100, seed = 32)
    Models.all.foreach { m =>
      val preds = MLTestData.scored(m.fit(MLTestData.train(train), m.defaults, seed = 7), train).map(_._2).toSet
      assert(preds.subsetOf(Set(0.0, 1.0)), m.name)
    }
  }

  test("sample() draws from the declared grid and keeps defaults for the rest") {
    val rng = new Random(5)
    Models.all.foreach { m =>
      val s = m.sample(rng)
      m.grid.foreach { case (k, vs) => assert(vs.contains(s(k)), s"${m.name}.$k") }
      (m.defaults.keySet -- m.grid.keySet).foreach { k =>
        assert(s(k) == m.defaults(k), s"${m.name}.$k")
      }
    }
  }

  test("sample() is deterministic in the RNG seed") {
    Models.all.foreach { m =>
      assert(m.sample(new Random(9)) == m.sample(new Random(9)), m.name)
    }
  }

  test("tree-family models fit XOR; logistic regression cannot") {
    val train = MLTestData.xor(n = 240, seed = 33)
    val test  = MLTestData.xor(n = 120, seed = 34)
    def acc(name: String): Double = {
      val m = Models.byName(name)
      Evaluate.accuracy(MLTestData.scored(m.fit(MLTestData.train(train), m.defaults, 7), test))
    }
    assert(acc("decision_tree") > 0.9)
    assert(acc("random_forest") > 0.9)
    assert(acc("xgboost") > 0.9)
    assert(acc("logistic_regression") < 0.75) // linear boundary can't do XOR
  }

  test("MLlib adapters: predict(v) equals the prediction column of transform") {
    // Overlapping blobs, so that many points sit near each decision boundary.
    val trainRows = MLTestData.train(MLTestData.blobs(n = 200, sep = 0.4, seed = 35))
    val train = trainRows.frame
    val test  = MLTestData.train(MLTestData.blobs(n = 150, sep = 0.4, seed = 36)).frame
    def agree(name: String, model: Transformer): Unit = {
      val m = Models.byName(name)
      val predict = m.fit(trainRows, m.defaults, seed = 7)
      val rows = model.transform(test).select(Features.FeaturesCol, "prediction").collect()
      rows.foreach(r => assert(predict(r.getAs[Vector](0)) == r.getDouble(1), name))
    }
    def p(name: String, k: String) = Models.byName(name).defaults(k)
    agree("logistic_regression", new LogisticRegression()
      .setMaxIter(p("logistic_regression", "maxIter").toInt)
      .setRegParam(p("logistic_regression", "regParam")).fit(train))
    agree("decision_tree", new DecisionTreeClassifier()
      .setMaxDepth(p("decision_tree", "maxDepth").toInt).setSeed(7).fit(train))
    agree("random_forest", new RandomForestClassifier()
      .setNumTrees(p("random_forest", "numTrees").toInt)
      .setMaxDepth(p("random_forest", "maxDepth").toInt).setSeed(7).fit(train))
    agree("xgboost", new GBTClassifier()
      .setMaxIter(p("xgboost", "maxIter").toInt).setMaxDepth(p("xgboost", "maxDepth").toInt)
      .setStepSize(p("xgboost", "stepSize")).setSeed(7).fit(train))
  }
}
