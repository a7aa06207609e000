package repro.ml

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.Row

import repro.SparkSpec
import repro.clean.CleaningMethods
import repro.core.{ErrorType, Experiment, MislabelVariants, Splits}
import repro.core.ErrorType._
import repro.data.{BenchDataset, Datasets}

/** Holds `WeightedTree` equal to MLlib's tree (`AdaBoostReference`) on the
  * arms AdaBoost is fit on.
  */
trait WeightedTreeOracle extends SparkSpec {

  /** Check `WeightedTree` against MLlib on rows under weights `w`: the same
    * tree, and the same predictions on every row set of `predicted`.
    */
  def assertSameTree(rows: Seq[(Vector, Double)], w: Array[Double], depth: Int,
                     predicted: Seq[Seq[(Vector, Double)]] = Nil): Vector => Double = {
    val want = AdaBoostReference.tree(rows, w, depth)
    val got = WeightedTree.fit(rows, w, depth)
    assert(AdaBoostReference.same(got, want.rootNode), s"got $got, want ${want.toDebugString}")
    (rows +: predicted).foreach { set =>
      assert(set.map(r => got.predict(r._1)) == set.map(r => want.predict(r._1)))
    }
    want.predict
  }

  /** Check every round's tree of AdaBoost (`rounds` of depth 2) on every
    * arm that a model is fit on, the baseline and each cleaner's, of every
    * dataset × error type × variant at each of `splits`. The rounds follow
    * the weights that MLlib's trees give; each tree must also predict as
    * MLlib's does on its arm's sub-train, validation and test rows.
    * Returns the number of trees checked.
    */
  def checkArms(splits: Seq[Int], rounds: Int): Int = {
    val cells = for (error <- ErrorType.all; ds <- Datasets.withError(error);
                     variant <- if (error == Mislabels) MislabelVariants.all else Seq("");
                     split <- splits)
      yield () => checkCell(ds, error, variant, split, rounds)
    onFourThreads(cells).sum
  }

  private def checkCell(ds: BenchDataset, error: ErrorType, variant: String, split: Int, rounds: Int): Int = {
    val spec = ds.spec
    val (train, test) = Splits.trainTest(ds.dirtyRows(error, variant), split)
    val cleaned = CleaningMethods.forError(error).map { c =>
      val (trC, teC) = c.clean(spec, train, test)
      (s"${c.method.detect}/${c.method.repair}", trC, teC)
    }
    // The deletion-trained baseline of missing values is scored on the
    // imputed test rows, which hold no null.
    val baseline: (String, Seq[Row], Seq[Row]) =
      if (error == MissingValues)
        ("deletion", repro.clean.MissingValues.Deletion.clean(spec, train, test)._1, cleaned.head._3)
      else ("dirty", train, test)
    (baseline +: cleaned).map { case (name, trainArm, testArm) =>
      val arm = Experiment.buildArm(spec, trainArm, split)
      // `Experiment.fitModel` fits no model on these.
      if (arm.classCounts.size < 2 || arm.classCounts.values.sum < 8) 0
      else {
        val rows = arm.sub.rows
        val testRows = arm.featurize.labeled(testArm)
        var trees = 0
        AdaBoost.boost(rows, rounds) { w =>
          withClue(s"${spec.name}/${error.name}$variant split $split $name round $trees: ") {
            trees += 1
            assertSameTree(rows, w, 2, Seq(arm.valRows, testRows))
          }
        }
        trees
      }
    }.sum
  }
}
