package repro.clean

import scala.util.Random

/** From-scratch isolation forest (Liu, Ting & Zhou 2008), applied
  * univariately per numeric attribute so that detected cells can be
  * repaired individually like the SD/IQR detectors (see DESIGN.md §1).
  *
  * Trees are grown on subsamples with uniform random split values; the
  * anomaly score of a point is 2^(-E[pathLength]/c(sampleSize)). The
  * contamination parameter mirrors scikit-learn's: the detection threshold
  * is the (1-contamination) quantile of the training scores.
  */
object IsolationForest {

  /** A node of an isolation tree; leaves have left == right == null. */
  final case class Node(splitValue: Double, left: Node, right: Node, size: Int)

  /** Average path length of an unsuccessful BST search over n points. */
  def c(n: Int): Double =
    if (n <= 1) 0.0
    else 2.0 * (math.log(n - 1.0) + 0.5772156649) - 2.0 * (n - 1.0) / n

  final case class Forest(trees: Seq[Node], sampleSize: Int) {
    private val norm = c(sampleSize)

    private def pathLength(x: Double, node: Node, depth: Int): Double =
      if (node.left == null && node.right == null) depth + c(node.size)
      else if (x < node.splitValue) pathLength(x, node.left, depth + 1)
      else pathLength(x, node.right, depth + 1)

    /** Anomaly score in (0, 1); higher is more anomalous. */
    def score(x: Double): Double = {
      if (trees.isEmpty || norm <= 0) return 0.5
      val avg = trees.map(t => pathLength(x, t, 0)).sum / trees.size
      math.pow(2.0, -avg / norm)
    }
  }

  private def grow(values: Array[Double], depth: Int, maxDepth: Int,
                   rng: Random): Node = {
    val lo = values.min
    val hi = values.max
    if (values.length <= 1 || depth >= maxDepth || lo == hi)
      Node(0.0, null, null, values.length)
    else {
      val split = lo + rng.nextDouble() * (hi - lo)
      val (l, r) = values.partition(_ < split)
      if (l.isEmpty || r.isEmpty) Node(0.0, null, null, values.length)
      else Node(split, grow(l, depth + 1, maxDepth, rng),
                grow(r, depth + 1, maxDepth, rng), values.length)
    }
  }

  def fit(values: Array[Double], numTrees: Int = 50, sampleSize: Int = 256,
          seed: Long = 0L): Forest = {
    require(values.nonEmpty, "isolation forest needs data")
    val rng = new Random(seed)
    val ss  = math.min(sampleSize, values.length)
    val maxDepth = math.ceil(math.log(ss.toDouble) / math.log(2.0)).toInt.max(1)
    val trees = (0 until numTrees).map { _ =>
      val sample = Array.fill(ss)(values(rng.nextInt(values.length)))
      grow(sample, 0, maxDepth, rng)
    }
    Forest(trees, ss)
  }

  /** Train-quantile threshold: flag scores strictly above the
    * (1-contamination) quantile of the training scores.
    */
  def threshold(forest: Forest, trainValues: Array[Double],
                contamination: Double): Double = {
    val scores = trainValues.map(forest.score).sorted
    val idx = math.min(scores.length - 1,
      math.max(0, math.ceil((1.0 - contamination) * scores.length).toInt - 1))
    scores(idx)
  }
}
