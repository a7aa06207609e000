package repro.ml

import org.apache.spark.ml.{Pipeline, PipelineModel, PipelineStage}
import org.apache.spark.ml.feature._
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.data.DataSpec

/** The Spark ML arm that `Features`, `Splits.subVal` and
  * `Features.downsample` compute on the driver: a 7-stage feature
  * `Pipeline`, a DataFrame sub-train/validation split and `sampleBy`. The
  * tests hold the local arm equal to it.
  */
object FeaturesReference {

  import Features.FeaturesCol

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

  /** Fit the pipeline on `train`. */
  def fit(spec: DataSpec, train: DataFrame): PipelineModel = pipeline(spec).fit(train)

  /** The (features, label) pairs of a featurized frame, collected. */
  def rows(featurized: DataFrame): Seq[(Vector, Double)] =
    featurized.select(col(FeaturesCol), col("label")).collect().toSeq
      .map(r => (r.getAs[Vector](0), r.getDouble(1)))

  /** 80/20 sub-train/validation split by a hash bucket of the row id. */
  def subVal(df: DataFrame, salt: Int): (DataFrame, DataFrame) = {
    val bucket = pmod(xxhash64(col("rid"), lit(salt), lit("validation")), lit(100))
    (df.filter(bucket < 80), df.filter(bucket >= 80))
  }

  /** Downsample the majority class with `sampleBy`; identity for balanced
    * datasets.
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

  /** A training arm as the pipeline builds it: the fitted pipeline, the
    * downsampled sub-train (cached), the validation rows and the
    * sub-train's class histogram.
    */
  final case class Arm(pipeline: PipelineModel, sub: DataFrame,
                       valRows: Seq[(Vector, Double)], classCounts: Map[Double, Long])

  def arm(spec: DataSpec, trainRaw: DataFrame, split: Int): Arm = {
    val pipeline = fit(spec, trainRaw)
    val featurized = pipeline.transform(trainRaw)
      .select(col("rid"), col(FeaturesCol), col("label"))
    val (sub0, valFold) = subVal(featurized, salt = split * 131 + 17)
    val sub = downsample(spec, sub0, seed = split.toLong).cache()
    val classCounts = sub.groupBy("label").count().collect()
      .map(r => r.getDouble(0) -> r.getLong(1)).toMap
    Arm(pipeline, sub, rows(valFold), classCounts)
  }
}
