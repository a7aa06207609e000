package repro.ml

import org.apache.spark.ml.linalg.Vectors

import repro.SparkSpec

class KNNSpec extends SparkSpec {

  test("k=1 predicts the label of the exact nearest neighbor") {
    val train = Seq(
      (Vectors.dense(0.0, 0.0), 0.0),
      (Vectors.dense(10.0, 10.0), 1.0))
    val predict = KNN.fit(train, k = 1)
    assert(predict(Vectors.dense(1.0, 1.0)) == 0.0)
    assert(predict(Vectors.dense(9.0, 9.0)) == 1.0)
  }

  test("k=3 majority vote overrides a single close neighbor") {
    val train = Seq(
      (Vectors.dense(0.0), 1.0),   // closest
      (Vectors.dense(0.3), 0.0),
      (Vectors.dense(-0.3), 0.0),
      (Vectors.dense(5.0), 1.0))
    val predict = KNN.fit(train, k = 3)
    assert(predict(Vectors.dense(0.01)) == 0.0)
  }

  test("separable blobs are classified nearly perfectly") {
    val train = MLTestData.blobs(n = 150, seed = 3)
    val test  = MLTestData.blobs(n = 60, seed = 4)
    val acc = Evaluate.accuracy(MLTestData.scored(KNN.fit(train, 5), test))
    assert(acc > 0.95, s"acc=$acc")
  }

  test("k larger than the training set degrades to global majority") {
    val train = Seq(
      (Vectors.dense(0.0), 1.0),
      (Vectors.dense(1.0), 1.0),
      (Vectors.dense(2.0), 0.0))
    val predict = KNN.fit(train, k = 50)
    assert(predict(Vectors.dense(100.0)) == 1.0)
  }

  test("vote ties break toward the smaller label") {
    val train = Seq(
      (Vectors.dense(-1.0), 0.0),
      (Vectors.dense(1.0), 1.0))
    val predict = KNN.fit(train, k = 2)
    assert(predict(Vectors.dense(0.0)) == 0.0)
  }
}
