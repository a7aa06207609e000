package repro.ml

import org.apache.spark.ml.linalg.Vectors

import repro.SparkSpec

class GaussianNBSpec extends SparkSpec {

  test("separable gaussians are classified nearly perfectly") {
    val train = MLTestData.blobs(n = 150, seed = 20)
    val test  = MLTestData.blobs(n = 60, seed = 21)
    val acc = Evaluate.accuracy(MLTestData.scored(GaussianNB.fit(train), test))
    assert(acc > 0.95, s"acc=$acc")
  }

  test("negative (standardized) features are handled") {
    val train = Seq(
      (Vectors.dense(-3.0, -3.0), 0.0),
      (Vectors.dense(-2.5, -3.5), 0.0),
      (Vectors.dense(-3.5, -2.5), 0.0),
      (Vectors.dense(3.0, 3.0), 1.0),
      (Vectors.dense(2.5, 3.5), 1.0),
      (Vectors.dense(3.5, 2.5), 1.0))
    MLTestData.scored(GaussianNB.fit(train), train).foreach { case (l, p) => assert(p == l) }
  }

  test("zero-variance (one-hot constant-in-class) features do not produce NaN") {
    // Second dim is constant per class — like a one-hot column.
    val train = Seq(
      (Vectors.dense(-1.0, 1.0), 0.0),
      (Vectors.dense(-1.2, 1.0), 0.0),
      (Vectors.dense(1.0, 0.0), 1.0),
      (Vectors.dense(1.2, 0.0), 1.0))
    MLTestData.scored(GaussianNB.fit(train), train).foreach { case (l, p) =>
      assert(p == 0.0 || p == 1.0)
      assert(p == l)
    }
  }

  test("prior matters: skewed classes pull ambiguous points to the majority") {
    val train = (0 until 90).map(i => (Vectors.dense(0.0 + 0.01 * (i % 7)), 1.0)) ++
      (90 until 100).map(i => (Vectors.dense(0.05 + 0.01 * (i % 7)), 0.0))
    assert(GaussianNB.fit(train)(Vectors.dense(0.03)) == 1.0)
  }

  test("deterministic predictions") {
    val train = MLTestData.blobs(n = 100, seed = 22)
    val p1 = MLTestData.scored(GaussianNB.fit(train), train)
    val p2 = MLTestData.scored(GaussianNB.fit(train), train)
    assert(p1 == p2)
  }
}
