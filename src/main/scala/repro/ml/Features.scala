package repro.ml

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.ml.attribute.{Attribute, AttributeGroup, BinaryAttribute, NominalAttribute, NumericAttribute}
import org.apache.spark.ml.feature.HashingTF
import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.mllib.linalg.{Vectors => OldVectors}
import org.apache.spark.mllib.stat.MultivariateOnlineSummarizer
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StructField, StructType}
import org.apache.spark.util.random.XORShiftRandomAccess

import repro.data.{DataSpec, Rows}
import repro.stats.Descriptive

/** Feature preprocessing per paper §3.3: one-hot encoding for categorical
  * attributes, tf-idf for text attributes, standardization of numeric
  * attributes (mean 0 / variance 1), and majority-class downsampling for
  * class-imbalanced datasets. The statistics are fit on the collected rows
  * of an experiment arm's training set and applied to both sets, on the
  * driver. Each step computes, bit for bit, what Spark ML's standard
  * scaler, string indexer and one-hot encoder (invalid values kept, no slot
  * dropped), regex tokenizer, hashing TF (64 buckets) and idf, vector
  * assembler and `sampleBy` compute on a one-partition frame; the tests
  * keep that pipeline as their oracle.
  */
object Features {

  val FeaturesCol = "features"

  /** A fitted featurizer: the feature vector of a raw row, read by column
    * name, and the ML attributes of its slots (binary for one-hot slots,
    * numeric otherwise), which the MLlib tree models read.
    */
  final class Featurizer(val attributes: AttributeGroup, vector: Row => Vector)
      extends (Row => Vector) {
    def apply(row: Row): Vector = vector(row)

    /** The (features, label) pairs of raw rows, in order. */
    def labeled(rows: Seq[Row]): Seq[(Vector, Double)] = rows.map(r => (vector(r), r.getAs[Double]("label")))
  }

  /** Featurized (features, label) training rows and their slots' ML
    * attributes.
    */
  final case class Train(rows: Seq[(Vector, Double)], attributes: AttributeGroup) {

    /** The frame (`features`, `label`) that the MLlib estimators fit on:
      * the rows as one partition, in order, with `attributes` on `features`
      * and `label` marked 2-valued, so the tree estimators need no job to
      * count its classes (an arm is fit only when it has both).
      */
    def frame: DataFrame =
      Rows.frame(SparkSession.active,
        StructType(Seq(attributes.toStructField(), LabelField)),
        rows.map { case (v, l) => Row(v, l) })
  }

  private val LabelField: StructField =
    NominalAttribute.defaultAttr.withName("label").withNumValues(2).toStructField()

  private val tf = new HashingTF().setNumFeatures(64)

  private def terms(text: String): Seq[String] = text.toLowerCase.split("\\W+").toSeq.filter(_.nonEmpty)

  /** Fit on an arm's training rows, which carry the spec's feature columns
    * (anti-leakage: arm-local statistics). A null or NaN numeric cell
    * fails, in training and in application alike.
    */
  def fit(spec: DataSpec, rows: Seq[Row]): Featurizer = {
    def numeric(r: Row): Array[Double] = spec.numeric.toArray.map { c =>
      val v = r.getAs[Any](c)
      require(v != null && !v.asInstanceOf[Double].isNaN, s"${spec.name}: $c is null or NaN")
      v.asInstanceOf[Double]
    }
    // Sample mean and variance, summarized in row order, as Spark
    // aggregates one partition.
    val (mean, scale) =
      if (spec.numeric.isEmpty) (Array.empty[Double], Array.empty[Double])
      else {
        val summary = new MultivariateOnlineSummarizer()
        rows.foreach(r => summary.add(OldVectors.dense(numeric(r))))
        (summary.mean.toArray,
          summary.variance.toArray.map { v => val sd = math.sqrt(v); if (sd == 0) 0.0 else 1.0 / sd })
      }

    // Category index: frequency descending, ties alphabetical; nulls uncounted.
    val categories: Seq[Map[String, Int]] = spec.categorical.map { c =>
      Descriptive.counts(rows.flatMap(r => Option(r.getAs[String](c)))).toSeq
        .sortWith((a, b) => if (a._2 == b._2) a._1 < b._1 else a._2 > b._2)
        .map(_._1).zipWithIndex.toMap
    }
    // Per text column, the idf of each bucket over the documents.
    val idf: Seq[Array[Double]] = spec.text.map { t =>
      val docFreq = Descriptive.counts(rows.flatMap(r => terms(r.getAs[String](t)).map(tf.indexOf).distinct))
      Array.tabulate(tf.getNumFeatures)(j => math.log((rows.size + 1.0) / (docFreq.getOrElse(j, 0L) + 1.0)))
    }

    // A categorical column takes one slot per category, one for an unseen
    // or null value, and one that no value reaches.
    val attributes: Array[Attribute] =
      Array.fill[Attribute](mean.length)(NumericAttribute.defaultAttr) ++
        categories.flatMap(m => Seq.fill[Attribute](m.size + 2)(BinaryAttribute.defaultAttr)) ++
        idf.flatMap(w => Seq.fill[Attribute](w.length)(NumericAttribute.defaultAttr))

    val featurize = (r: Row) => {
      val slots = ArrayBuffer.empty[(Int, Double)]
      val x = numeric(r)
      x.indices.foreach(i => slots += i -> (x(i) - mean(i)) * scale(i))
      var offset = x.length
      spec.categorical.zip(categories).foreach { case (c, index) =>
        slots += offset + Option(r.getAs[String](c)).flatMap(index.get).getOrElse(index.size) -> 1.0
        offset += index.size + 2
      }
      spec.text.zip(idf).foreach { case (t, w) =>
        Descriptive.counts(terms(r.getAs[String](t)).map(tf.indexOf)).toSeq.sorted.foreach { case (j, n) =>
          slots += offset + j -> n * w(j)
        }
        offset += w.length
      }
      val nonzero = slots.filter(_._2 != 0.0)
      Vectors.sparse(offset, nonzero.map(_._1).toArray, nonzero.map(_._2).toArray).compressed
    }
    new Featurizer(new AttributeGroup(FeaturesCol, attributes), featurize)
  }

  /** Downsample the majority class in a training set so classes balance
    * (paper §3.3 item 4); identity for balanced datasets. Row by row, in
    * order, a row is kept when a draw of Spark's `XORShiftRandom(seed)`
    * falls below its class's fraction, as `sampleBy` keeps a row of a
    * one-partition frame.
    */
  def downsample(spec: DataSpec, rows: Seq[(Vector, Double)], seed: Long): Seq[(Vector, Double)] = {
    if (!spec.imbalanced) return rows
    val counts = Descriptive.counts(rows.map(_._2))
    if (counts.size < 2) return rows
    val minCount = counts.values.min
    val fractions = counts.map { case (l, n) => l -> math.min(1.0, minCount.toDouble / n) }
    val rng = XORShiftRandomAccess(seed)
    rows.filter { case (_, l) => rng.nextDouble() < fractions(l) }
  }
}
