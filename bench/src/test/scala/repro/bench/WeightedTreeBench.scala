package repro.bench

import repro.ml.WeightedTreeOracle

/** The full sweep of the AdaBoost base-tree oracle: every round's tree of
  * every arm of every dataset × error type × variant, at splits 0 and 1
  * and over 5 rounds, is the tree MLlib's `DecisionTreeClassifier` fits on
  * the same rows and weights, and predicts as it does on the arm's
  * sub-train, validation and test rows. Tier-1's `WeightedTreeSpec` runs
  * split 0 over 3 rounds.
  */
class WeightedTreeBench extends WeightedTreeOracle {

  test("every AdaBoost tree of every arm at splits 0 and 1 is MLlib's tree, over 5 rounds") {
    val t0 = System.nanoTime()
    val trees = checkArms(splits = Seq(0, 1), rounds = 5)
    Console.err.println(f"[WeightedTreeBench] $trees trees checked in ${(System.nanoTime() - t0) / 1e9}%.1f s")
    assert(trees > 0)
  }
}
