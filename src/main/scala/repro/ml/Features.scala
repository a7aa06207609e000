package repro.ml

import org.apache.spark.ml.{Pipeline, PipelineModel, PipelineStage}
import org.apache.spark.ml.feature._
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.data.DataSpec

/** Feature preprocessing per paper §3.3: one-hot encoding for categorical
  * attributes, tf-idf for text attributes, standardization of numeric
  * attributes (mean 0 / variance 1), and majority-class downsampling for
  * class-imbalanced datasets. The pipeline is fit on the training set of
  * the experiment arm and applied to both sets.
  */
object Features {

  val FeaturesCol = "features"

  /** Build the (unfit) preprocessing pipeline for a dataset's schema. */
  def pipeline(spec: DataSpec): Pipeline = {
    val stages = scala.collection.mutable.ArrayBuffer.empty[PipelineStage]
    val assembled = scala.collection.mutable.ArrayBuffer.empty[String]

    if (spec.numeric.nonEmpty) {
      stages += new VectorAssembler()
        .setInputCols(spec.numeric.toArray)
        .setOutputCol("__num_raw")
      stages += new StandardScaler()
        .setInputCol("__num_raw").setOutputCol("__num_scaled")
        .setWithMean(true).setWithStd(true)
      assembled += "__num_scaled"
    }
    if (spec.categorical.nonEmpty) {
      val idxCols = spec.categorical.map(c => s"__${c}_idx").toArray
      val ohCols  = spec.categorical.map(c => s"__${c}_oh").toArray
      stages += new StringIndexer()
        .setInputCols(spec.categorical.toArray).setOutputCols(idxCols)
        .setHandleInvalid("keep")
      stages += new OneHotEncoder()
        .setInputCols(idxCols).setOutputCols(ohCols)
        .setHandleInvalid("keep").setDropLast(false)
      assembled ++= ohCols
    }
    spec.text.foreach { t =>
      stages += new RegexTokenizer()
        .setInputCol(t).setOutputCol(s"__${t}_tok").setPattern("\\W+")
      stages += new HashingTF()
        .setInputCol(s"__${t}_tok").setOutputCol(s"__${t}_tf").setNumFeatures(64)
      stages += new IDF().setInputCol(s"__${t}_tf").setOutputCol(s"__${t}_idf")
      assembled += s"__${t}_idf"
    }
    stages += new VectorAssembler()
      .setInputCols(assembled.toArray).setOutputCol(FeaturesCol)
    new Pipeline().setStages(stages.toArray)
  }

  /** Fit the pipeline on `train` (anti-leakage: arm-local statistics). */
  def fit(spec: DataSpec, train: DataFrame): PipelineModel =
    pipeline(spec).fit(train)

  /** The (features, label) pairs of a featurized frame, collected to the
    * driver, where the models fit and score.
    */
  def rows(featurized: DataFrame): Seq[(Vector, Double)] =
    featurized.select(col(FeaturesCol), col("label")).collect().toSeq
      .map(r => (r.getAs[Vector](0), r.getDouble(1)))

  /** Downsample the majority class in a training set so classes balance
    * (paper §3.3 item 4); identity for balanced datasets.
    */
  def downsample(spec: DataSpec, train: DataFrame, seed: Long): DataFrame = {
    if (!spec.imbalanced) return train
    val counts = train.groupBy("label").count().collect()
      .map(r => r.getDouble(0) -> r.getLong(1)).toMap
    if (counts.size < 2) return train
    val minCount = counts.values.min
    val fractions = counts.map { case (l, n) =>
      l -> math.min(1.0, minCount.toDouble / n)
    }
    train.stat.sampleBy("label", fractions, seed)
  }
}
