package repro.ml

import org.apache.spark.ml.linalg.{Vector, Vectors}

/** `WeightedTree` grows MLlib's tree (`AdaBoostReference`): on hand-made
  * rows that reach each rule of MLlib's split finding, and on every arm
  * AdaBoost is fit on at split 0 (`bench/` runs more splits and rounds).
  */
class WeightedTreeSpec extends WeightedTreeOracle {

  /** Uniform weights 1/n, and positive weights that sum to 1 as AdaBoost's
    * do after a round.
    */
  private def weightings(n: Int, seed: Long): Seq[Array[Double]] = {
    val rng = new scala.util.Random(seed)
    val raw = Array.fill(n)(0.05 + rng.nextDouble())
    Seq(Array.fill(n)(1.0 / n), raw.map(_ / raw.sum))
  }

  /** Check the tree at depths 1 to 3 under each weighting; returns the
    * trees.
    */
  private def check(rows: Seq[(Vector, Double)], seed: Long): Seq[WeightedTree.Node] =
    for (w <- weightings(rows.size, seed); depth <- 1 to 3) yield {
      withClue(s"depth $depth: ")(assertSameTree(rows, w, depth))
      WeightedTree.fit(rows, w, depth)
    }

  /** The features a tree splits on. */
  private def splitFeatures(t: WeightedTree.Node): Set[Int] = t match {
    case WeightedTree.Split(f, _, l, r) => splitFeatures(l) ++ splitFeatures(r) + f
    case _ => Set.empty
  }

  test("fewer rows than bins: every midpoint is a threshold") {
    check(MLTestData.blobs(n = 10, seed = 21), 1)
    check(MLTestData.xor(n = 24, seed = 22), 2)
  }

  test("a constant feature is never split on") {
    val rows = MLTestData.xor(n = 120, seed = 23).map { case (v, l) => (Vectors.dense(3.0, v(0), v(1)), l) }
    check(rows, 3).foreach(t => assert(!splitFeatures(t).contains(0)))
  }

  test("an all-zero sparse feature is never split on, and zeros enter the thresholds") {
    val rows = MLTestData.xor(n = 150, seed = 24).zipWithIndex.map { case ((v, l), i) =>
      val x = if (i % 5 == 0) 0.0 else v(0)
      (Vectors.sparse(3, Array(0, 2), Array(x, v(1))).compressed, l)
    }
    check(rows, 4).foreach(t => assert(!splitFeatures(t).contains(1)))
  }

  test("more distinct values than bins, zero among them: ranges of equal weight") {
    val rng = new scala.util.Random(25)
    val rows = (0 until 300).map { i =>
      val x = if (i % 3 == 0) 0.0 else rng.nextGaussian()
      (Vectors.dense(x, rng.nextGaussian()), if (x + 0.3 * rng.nextGaussian() > 0.2) 1.0 else 0.0)
    }
    check(rows, 5)
  }

  test("every feature constant: the root is a leaf of the heavier class") {
    val rows = (0 until 40).map(i => (Vectors.dense(1.0, 0.0), if (i % 4 == 0) 1.0 else 0.0))
    check(rows, 6).foreach(t => assert(t == WeightedTree.Leaf(0.0)))
    val w = Array.tabulate(40)(i => if (i % 4 == 0) 0.1 else 0.01)
    assertSameTree(rows, w, 2)
    assert(WeightedTree.fit(rows, w, 2) == WeightedTree.Leaf(1.0))
  }

  test("a pure child is a leaf") {
    // Feature 0 cuts off 16 rows of class 0; feature 1 then separates the
    // rest. 32 rows make every midpoint a threshold.
    val rows = (0 until 32).map { i =>
      val x1 = (i * 7 % 11).toDouble
      (Vectors.dense(i.toDouble, x1), if (i < 16 || x1 >= 8) 0.0 else 1.0)
    }
    check(rows, 7).foreach {
      case WeightedTree.Split(0, _, WeightedTree.Leaf(0.0), _) =>
      case t => fail(s"no pure left leaf: $t")
    }
  }

  test("tied gains across features: the first feature wins") {
    val rows = MLTestData.xor(n = 100, seed = 26).map { case (v, l) => (Vectors.dense(v(0), v(0), v(1)), l) }
    check(rows, 8).foreach(t => assert(!splitFeatures(t).contains(1)))
  }

  test("every AdaBoost tree of every arm at split 0 is MLlib's tree, over 3 rounds") {
    val trees = checkArms(splits = Seq(0), rounds = 3)
    Console.err.println(s"[WeightedTreeSpec] $trees trees checked")
    assert(trees > 0)
  }
}
