package repro.data

import scala.collection.mutable

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.expressions.GenericRowWithSchema
import org.apache.spark.sql.types._

import repro.core.ErrorType
import repro.stats.Descriptive

/** Static description of a synthetic dataset analog (see DESIGN.md §1 for
  * the mapping from each paper dataset to its analog).
  *
  * @param name        dataset name as it appears in the relations
  * @param rows        number of clean rows generated (before duplication)
  * @param numeric     numeric feature columns
  * @param categorical categorical feature columns
  * @param text        free-text feature columns (tf-idf encoded)
  * @param metric      evaluation metric: "acc" or "f1" (imbalanced sets)
  * @param imbalanced  whether training downsamples the majority class
  * @param errors      error types present (paper Table 3)
  * @param keyCol      entity-key column for duplicate detection
  * @param inconsCol   column carrying inconsistent representations
  * @param outlierCols numeric columns subject to outlier detection
  */
final case class DataSpec(
    name: String,
    rows: Int,
    numeric: Seq[String],
    categorical: Seq[String],
    text: Seq[String] = Nil,
    metric: String = "acc",
    imbalanced: Boolean = false,
    errors: Set[ErrorType] = Set.empty,
    keyCol: Option[String] = None,
    inconsCol: Option[String] = None,
    outlierCols: Seq[String] = Nil) {

  /** All model-input feature columns. */
  def featureCols: Seq[String] = numeric ++ categorical ++ text

  /** Full schema of the generated DataFrame (features + bookkeeping). */
  def schema: StructType = StructType(
    StructField("rid", LongType, nullable = false) +:
      (numeric.map(StructField(_, DoubleType, nullable = true)) ++
        categorical.map(StructField(_, StringType, nullable = true)) ++
        text.map(StructField(_, StringType, nullable = true)) ++
        keyCol.toSeq.map(StructField(_, StringType, nullable = true)) ++
        Seq(
          StructField("label", DoubleType, nullable = false),
          StructField("label_gt", DoubleType, nullable = false))))

  /** Column order used when materializing rows. */
  def columnOrder: Seq[String] = schema.fields.map(_.name).toSeq
}

object Gen {
  /** A row under construction: column name -> value (Double/String/Long). */
  type MRow = mutable.LinkedHashMap[String, Any]

  def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  /** Deterministic RNG wrapper with the draws the generators need. */
  final class Rng(seed: Long) {
    val r = new scala.util.Random(seed)
    def gaussian(mu: Double = 0.0, sd: Double = 1.0): Double = mu + sd * r.nextGaussian()
    def lognormal(mu: Double, sigma: Double): Double = math.exp(gaussian(mu, sigma))
    def uniform(a: Double, b: Double): Double = a + (b - a) * r.nextDouble()
    def int(a: Int, b: Int): Int = a + r.nextInt(b - a + 1) // inclusive
    def bern(p: Double): Boolean = r.nextDouble() < p
    def pick[A](xs: Seq[A]): A = xs(r.nextInt(xs.size))
    /** Bernoulli label from a logit score. */
    def label(score: Double): Double = if (bern(sigmoid(score))) 1.0 else 0.0
  }

  /** Stable per-dataset seed so generators are independent of each other. */
  def seedFor(dataset: String, salt: Long): Long = {
    var h = 1125899906842597L
    dataset.foreach(c => h = 31 * h + c)
    h ^ (salt * 0x9E3779B97F4A7C15L)
  }

  def newRow(): MRow = mutable.LinkedHashMap.empty[String, Any]

  /** Generated rows as `Row`s of the spec's schema, in order: a dataset
    * is <= ~2000 rows, and a cell runs on them on the driver (DESIGN.md §6).
    */
  def rows(spec: DataSpec, generated: Seq[MRow]): Seq[Row] = {
    val (schema, order) = (spec.schema, spec.columnOrder)
    generated.map(m => new GenericRowWithSchema(order.map(c => m.getOrElse(c, null)).toArray, schema))
  }

  /** Column values as doubles, skipping nulls. */
  def numericValues(rows: Seq[MRow], col: String): Seq[Double] =
    rows.flatMap(r => r.get(col) match {
      case Some(d: Double) => Some(d)
      case _               => None
    })

  /** Two-pass, not `Descriptive.stddevSamp`: it sizes the injected jitter,
    * and Welford's rounding would change the generated data.
    */
  def stddev(xs: Seq[Double]): Double = {
    if (xs.size < 2) return 0.0
    val m = Descriptive.mean(xs.toArray)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / (xs.size - 1))
  }
}
