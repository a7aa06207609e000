package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class EvaluateSpec extends AnyFunSuite {

  /** (label, prediction) pairs. */
  private def pairs(ps: (Double, Double)*): Seq[(Double, Double)] = ps

  test("accuracy hand-computed") {
    val ps = pairs((1.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0))
    assert(Evaluate.accuracy(ps) == 0.75)
  }

  test("accuracy of perfect and useless predictors") {
    assert(Evaluate.accuracy(pairs((1.0, 1.0), (0.0, 0.0))) == 1.0)
    assert(Evaluate.accuracy(pairs((1.0, 0.0), (0.0, 1.0))) == 0.0)
  }

  test("f1 hand-computed") {
    // tp=2, fp=1, fn=1 -> precision 2/3, recall 2/3, f1 = 2/3.
    val ps = pairs((1.0, 1.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0))
    assert(math.abs(Evaluate.f1(ps) - 2.0 / 3.0) < 1e-12)
  }

  test("f1 is zero without true positives") {
    val ps = pairs((1.0, 0.0), (0.0, 0.0))
    assert(Evaluate.f1(ps) == 0.0)
  }

  test("f1 of a perfect predictor is 1") {
    val ps = pairs((1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
    assert(Evaluate.f1(ps) == 1.0)
  }

  test("score dispatches by metric name") {
    val ps = pairs((1.0, 1.0), (0.0, 1.0))
    assert(Evaluate.score(ps, "acc") == 0.5)
    assert(math.abs(Evaluate.score(ps, "f1") - 2.0 / 3.0) < 1e-12)
    intercept[RuntimeException] { Evaluate.score(ps, "auc") }
  }

  test("empty predictions score zero, not NaN") {
    assert(Evaluate.accuracy(pairs()) == 0.0)
    assert(Evaluate.f1(pairs()) == 0.0)
  }
}
