package repro.ml

import scala.collection.mutable

import org.apache.spark.ml.linalg.Vector

/** A weighted gini CART over continuous features, grown on the driver: the
  * base learner of `AdaBoost`. It computes, bit for bit, the tree that
  * MLlib's `DecisionTreeClassifier` fits with maxBins 32,
  * minInstancesPerNode 1, minWeightFractionPerNode 0 and minInfoGain 0 (one
  * tree over all features, so no seed) on the rows and weights as a
  * one-partition frame whose features carry no ML attributes. Every sum
  * below is taken in MLlib's order; the tests hold the tree equal to
  * MLlib's (`AdaBoostReference`).
  */
object WeightedTree {

  sealed trait Node {
    def predict(v: Vector): Double
  }

  final case class Leaf(prediction: Double) extends Node {
    def predict(v: Vector): Double = prediction
  }

  /** Rows with `v(feature) <= threshold` go left. */
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node {
    def predict(v: Vector): Double = if (v(feature) <= threshold) left.predict(v) else right.predict(v)
  }

  private val MaxBins = 32
  // MLlib's `Utils.EPSILON`, the machine epsilon.
  private val Eps = 2.220446049250313e-16

  /** Gini statistics: the weight of each class and the number of rows. */
  private final case class Stats(w0: Double, w1: Double, rows: Double) {
    def +(o: Stats): Stats = Stats(w0 + o.w0, w1 + o.w1, rows + o.rows)
    def -(o: Stats): Stats = Stats(w0 - o.w0, w1 - o.w1, rows - o.rows)
    def weight: Double = w0 + w1
    def gini: Double = {
      val total = weight
      if (total == 0) 0.0
      else { val f0 = w0 / total; val f1 = w1 / total; 1.0 - f0 * f0 - f1 * f1 }
    }
    /** The first class of largest weight. */
    def prediction: Double = if (weight == 0 || w0 >= w1) 0.0 else 1.0
  }

  /** A split candidate: its gain (the lowest for a split with no row on a
    * side or a negative gain), the node's stats and impurity, and the stats
    * on each side.
    */
  private final case class Candidate(gain: Double, parent: Stats, impurity: Double,
                                     feature: Int, split: Int, left: Stats, right: Stats)

  /** The split thresholds of one feature's column. The weight of each
    * distinct nonzero value is summed in row order; zero enters with the
    * rest of the weight when that exceeds a tolerance. Up to `numBins`
    * distinct values give every midpoint; more are cut into `numBins`
    * ranges of about equal weight.
    */
  private def thresholds(column: Array[Double], w: Array[Double], weightSum: Double,
                         numBins: Int): Array[Double] = {
    val weights = mutable.HashMap.empty[Double, Double]
    var nonzero = 0L
    column.indices.foreach { i =>
      val x = column(i)
      if (x != 0.0) {
        weights(x) = weights.get(x).fold(w(i))(_ + w(i))
        nonzero += 1
      }
    }
    if (weights.isEmpty) return Array.emptyDoubleArray
    // MLlib sums the values of the immutable map of these weights.
    val zeros = weightSum - weights.toMap.values.sum
    if (zeros > Eps * nonzero * 100) weights(0.0) = zeros
    val values = weights.toArray.sortBy(_._1)
    if (values.length == 1) Array.emptyDoubleArray
    else if (values.length <= numBins)
      Array.tabulate(values.length - 1)(i => (values(i)._1 + values(i + 1)._1) / 2.0)
    else {
      val stride = weightSum / numBins
      val cuts = Array.newBuilder[Double]
      var current = values(0)._2
      var target = stride
      (1 until values.length).foreach { i =>
        val previous = current
        current += values(i)._2
        if (math.abs(previous - target) < math.abs(current - target)) {
          cuts += (values(i - 1)._1 + values(i)._1) / 2.0
          target += stride
        }
      }
      cuts.result()
    }
  }

  /** Fit on featurized rows with labels 0 and 1 and their weights `w`, to
    * depth `maxDepth`.
    */
  def fit(rows: Seq[(Vector, Double)], w: Array[Double], maxDepth: Int): Node = {
    val n = rows.length
    require(n > 0 && n == w.length, "WeightedTree: rows and weights differ or are empty")
    // Above this, MLlib finds the thresholds on a sample of the rows.
    require(n <= 10000, s"WeightedTree: $n rows")
    val labels = rows.map(_._2).toArray
    require(labels.forall(l => l == 0.0 || l == 1.0), "WeightedTree: labels must be 0 or 1")
    val numFeatures = rows.head._1.size
    val columns = Array.ofDim[Double](numFeatures, n)
    rows.iterator.zipWithIndex.foreach { case ((v, _), i) => v.foreachActive((f, x) => columns(f)(i) = x) }

    val weightSum = w.foldLeft(0.0)(_ + _)
    val numBins = math.min(MaxBins, n)
    val cuts = columns.map(thresholds(_, w, weightSum, numBins))
    val features = cuts.indices.filter(cuts(_).nonEmpty)
    // A row's bin: the index of the first threshold not below its value.
    val bins = features.map { f =>
      f -> columns(f).map { x => val i = java.util.Arrays.binarySearch(cuts(f), x); if (i >= 0) i else -i - 1 }
    }.toMap

    /** The split of `left` and `left`'s complement in `total`, against the
      * node's stats `parent` (the first candidate's sides when unknown).
      */
    def candidate(parent: Option[(Stats, Double)], feature: Int, split: Int,
                  left: Stats, total: Stats): Candidate = {
      val right = total - left
      val (p, impurity) = parent.getOrElse { val p = left + right; (p, p.gini) }
      val gain =
        if (left.rows < 1 || right.rows < 1) Double.MinValue
        else {
          val (lw, rw) = (left.weight, right.weight)
          val g = impurity - lw / (lw + rw) * left.gini - rw / (lw + rw) * right.gini
          if (g < 0) Double.MinValue else g
        }
      Candidate(gain, p, impurity, feature, split, left, right)
    }

    /** The best split of the rows `at`, given the node's own stats except
      * at the root; the first of equal gains wins, over splits, then
      * features.
      */
    def best(at: Array[Int], own: Option[Stats]): Option[Candidate] = {
      var parent = own.map(s => (s, s.gini))
      var top: Option[Candidate] = None
      features.foreach { f =>
        val bin = bins(f)
        val numSplits = cuts(f).length
        val (s0, s1, sr) = (new Array[Double](numSplits + 1), new Array[Double](numSplits + 1),
          new Array[Double](numSplits + 1))
        at.foreach { i =>
          val b = bin(i)
          if (labels(i) == 0.0) s0(b) += w(i) else s1(b) += w(i)
          sr(b) += 1.0
        }
        (1 to numSplits).foreach { b => s0(b) += s0(b - 1); s1(b) += s1(b - 1); sr(b) += sr(b - 1) }
        val total = Stats(s0(numSplits), s1(numSplits), sr(numSplits))
        (0 until numSplits).foreach { s =>
          val c = candidate(parent, f, s, Stats(s0(s), s1(s), sr(s)), total)
          parent = Some((c.parent, c.impurity))
          if (top.forall(c.gain > _.gain)) top = Some(c)
        }
      }
      top
    }

    def grow(at: Array[Int], own: Option[Stats], level: Int): Node =
      best(at, own) match {
        case None =>
          // No feature has a threshold: the rows' stats in row order.
          Leaf(at.foldLeft(Stats(0.0, 0.0, 0.0)) { (s, i) =>
            if (labels(i) == 0.0) Stats(s.w0 + w(i), s.w1, s.rows + 1) else Stats(s.w0, s.w1 + w(i), s.rows + 1)
          }.prediction)
        case Some(c) if c.gain <= 0 || level == maxDepth => Leaf(c.parent.prediction)
        case Some(c) =>
          val threshold = cuts(c.feature)(c.split)
          val bin = bins(c.feature)
          val (l, r) = at.partition(i => bin(i) < cuts(c.feature).length && cuts(c.feature)(bin(i)) <= threshold)
          def child(rows: Array[Int], s: Stats): Node =
            if (level + 1 == maxDepth || math.abs(s.gini) < Eps) Leaf(s.prediction) else grow(rows, Some(s), level + 1)
          (child(l, c.left), child(r, c.right)) match {
            case (Leaf(a), Leaf(b)) if a == b => Leaf(a)
            case (a, b) => Split(c.feature, threshold, a, b)
          }
      }

    grow(Array.range(0, n), None, 0)
  }
}
