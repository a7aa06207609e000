package repro.ml

import org.apache.spark.ml.classification.DecisionTreeClassifier
import org.apache.spark.sql.functions.lit

import repro.SparkSpec

class AdaBoostSpec extends SparkSpec {

  test("boosting solves XOR that a single stump cannot") {
    val train = MLTestData.xor(n = 240, seed = 5)
    val test  = MLTestData.xor(n = 120, seed = 6)
    val acc = Evaluate.accuracy(
      MLTestData.scored(AdaBoost.fit(train, rounds = 4, baseDepth = 2), test))
    assert(acc > 0.9, s"acc=$acc")
  }

  test("separable blobs are classified nearly perfectly") {
    val train = MLTestData.blobs(n = 150, seed = 7)
    val test  = MLTestData.blobs(n = 60, seed = 8)
    val acc = Evaluate.accuracy(MLTestData.scored(AdaBoost.fit(train, 3, 2), test))
    assert(acc > 0.95, s"acc=$acc")
  }

  test("prediction column is binary") {
    val train = MLTestData.blobs(n = 80, seed = 9)
    val preds = MLTestData.scored(AdaBoost.fit(train, 3, 2), train).map(_._2).toSet
    assert(preds.subsetOf(Set(0.0, 1.0)))
  }

  test("deterministic") {
    val train = MLTestData.xor(n = 160, seed = 10)
    val test  = MLTestData.xor(n = 60, seed = 11)
    val a1 = Evaluate.accuracy(MLTestData.scored(AdaBoost.fit(train, 3, 2), test))
    val a2 = Evaluate.accuracy(MLTestData.scored(AdaBoost.fit(train, 3, 2), test))
    assert(a1 == a2)
  }

  test("single-round boosting equals its base tree's behaviour on blobs") {
    val train = MLTestData.blobs(n = 100, seed = 12)
    val acc = Evaluate.accuracy(MLTestData.scored(AdaBoost.fit(train, 1, 2), train))
    assert(acc > 0.9, s"acc=$acc")
  }

  test("one boosting round predicts exactly what its uniformly weighted depth-2 base tree predicts") {
    // The first round's tree sees uniform weights 1/n and a single positive
    // vote takes its prediction as it is. MLlib's continuous split finding
    // sums the weights in floating point, so the reference tree is fit with
    // the same uniform 1/n weight column rather than with none, on the rows
    // as one partition, as every round's tree is.
    val train = MLTestData.xor(n = 200, seed = 14)
    val test  = MLTestData.xor(n = 100, seed = 15)
    val tree = new DecisionTreeClassifier()
      .setFeaturesCol(Features.FeaturesCol).setLabelCol("label").setWeightCol("w")
      .setMaxDepth(2).setSeed(1)
      .fit(spark.createDataFrame(spark.sparkContext.parallelize(train, 1))
        .toDF(Features.FeaturesCol, "label").withColumn("w", lit(1.0 / 200)))
    val viaTree = MLTestData.scored(tree.predict, test)
    assert(MLTestData.scored(AdaBoost.fit(train, 1, 2), test) == viaTree)
  }

  test("does not crash on a tiny training set") {
    val train = MLTestData.blobs(n = 10, seed = 13)
    val preds = MLTestData.scored(AdaBoost.fit(train, 3, 2), train)
    assert(preds.size == 10)
  }

  test("AdaBoost.fit starts no Spark job") {
    val train = MLTestData.xor(n = 200, seed = 16)
    val test  = MLTestData.xor(n = 100, seed = 17)
    var preds = Seq.empty[(Double, Double)]
    assert(jobsOf { preds = MLTestData.scored(AdaBoost.fit(train, 3, 2), test) } == 0)
    assert(preds.size == 100)
  }
}
