package repro.ml

import org.apache.spark.ml.classification.{DecisionTreeClassificationModel, DecisionTreeClassifier}
import org.apache.spark.ml.linalg.{SQLDataTypes, Vector}
import org.apache.spark.ml.tree.{ContinuousSplit, InternalNode, LeafNode, Node}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}

import repro.data.Rows

/** AdaBoost's base tree as MLlib fits it, the way `AdaBoost` fit each
  * round on Spark: a weighted `DecisionTreeClassifier` on the rows and
  * their weights as one partition, with features that carry no ML
  * attributes. The tests hold `WeightedTree` equal to it.
  */
object AdaBoostReference {

  private val WeightedSchema = StructType(Seq(
    StructField(Features.FeaturesCol, SQLDataTypes.VectorType),
    StructField("label", DoubleType, nullable = false),
    StructField("__w", DoubleType, nullable = false)))

  /** The frame a round's tree is fit on: the rows with their weights as one
    * partition, in order. The features carry no ML attributes, so every
    * slot is continuous.
    */
  def weighted(rows: Seq[(Vector, Double)], w: Array[Double]): DataFrame =
    Rows.frame(SparkSession.active, WeightedSchema, rows.zip(w).map { case ((v, l), wi) => Row(v, l, wi) })

  /** MLlib's tree of depth `baseDepth` on the rows under weights `w`. */
  def tree(rows: Seq[(Vector, Double)], w: Array[Double], baseDepth: Int): DecisionTreeClassificationModel =
    new DecisionTreeClassifier()
      .setFeaturesCol(Features.FeaturesCol).setLabelCol("label")
      .setWeightCol("__w").setMaxDepth(baseDepth)
      .fit(weighted(rows, w))

  /** Whether `got` is MLlib's tree `want`: the same features, thresholds
    * equal by `==`, and the same leaf predictions.
    */
  def same(got: WeightedTree.Node, want: Node): Boolean = (got, want) match {
    case (WeightedTree.Leaf(p), l: LeafNode) => p == l.prediction
    case (WeightedTree.Split(f, t, l, r), n: InternalNode) => n.split match {
      case s: ContinuousSplit =>
        s.featureIndex == f && s.threshold == t && same(l, n.leftChild) && same(r, n.rightChild)
      case _ => false
    }
    case _ => false
  }
}
