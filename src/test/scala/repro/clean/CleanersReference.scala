package repro.clean

import scala.reflect.ClassTag

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.core.Method
import repro.data.DataSpec

/** The DataFrame split and cleaner transforms that `Splits.trainTest` and
  * the cleaners compute on driver rows: `xxhash64` filters, one collect of
  * the training columns for the statistics, and `na.drop`, `na.fill`,
  * `when`, UDF, `isInCollection` and `withColumn` repairs. The tests hold
  * the row cleaners equal to them.
  */
object CleanersReference {

  /** Columns of a frame, collected to the driver in one job. */
  final class Columns(names: Seq[String], rows: Array[Row]) {
    /** The non-null values of column `c`, in row order. */
    def values[A: ClassTag](c: String): Array[A] = {
      val i = names.indexOf(c)
      rows.collect { case r if !r.isNullAt(i) => r.getAs[A](i) }
    }
  }

  def columns(df: DataFrame, cols: Seq[String]): Columns =
    new Columns(cols, df.select(cols.head, cols.tail: _*).collect())

  /** 70/30 train/test split for a given split seed. */
  def trainTest(df: DataFrame, splitSeed: Int): (DataFrame, DataFrame) = {
    val bucket = pmod(xxhash64(col("rid"), lit(splitSeed)), lit(100))
    (df.filter(bucket < 70), df.filter(bucket >= 70))
  }

  type Clean = (DataSpec, DataFrame, DataFrame) => (DataFrame, DataFrame)

  /** The reference of the cleaner with method `m`. */
  def of(m: Method): Clean = m match {
    case MissingValues.Deletion.method => deletion
    case Method("empty_entry", repair) =>
      val Array(num, cat) = repair.split("_")
      imputer(num, cat)
    case Duplicates.method      => (spec, train, test) => (dedup(spec, train), dedup(spec, test))
    case Inconsistencies.method => inconsistencies
    case Mislabels.method       => (_, train, test) => (fix(train), fix(test))
    case Method(detect, repair) => outliers(detect, repair)
  }

  def deletion(spec: DataSpec, train: DataFrame, test: DataFrame): (DataFrame, DataFrame) =
    (train.na.drop(spec.featureCols), test.na.drop(spec.featureCols))

  def imputer(numStat: String, catStat: String)(spec: DataSpec, train: DataFrame,
                                                test: DataFrame): (DataFrame, DataFrame) = {
    val trainCols = columns(train, spec.numeric ++ spec.categorical)
    val numFill: Map[String, Double] = spec.numeric.map { c =>
      c -> MissingValues.numericStat(trainCols.values[Double](c), numStat)
    }.toMap
    val catFill: Map[String, String] = spec.categorical.map { c =>
      c -> (if (catStat == "dummy") MissingValues.DummyCategory
            else MissingValues.stringMode(trainCols.values[String](c)))
    }.toMap
    val textFill: Map[String, String] = spec.text.map(_ -> "").toMap

    def fill(df: DataFrame): DataFrame =
      df.na.fill(numFill).na.fill(catFill ++ textFill)
    (fill(train), fill(test))
  }

  /** A detector applied to a column; null cells are never flagged. */
  def flagged(isOutlier: Double => Boolean, c: String): Column =
    udf((v: java.lang.Double) => v != null && isOutlier(v)).apply(col(c))

  def outliers(detect: String, repair: String)(spec: DataSpec, train: DataFrame,
                                               test: DataFrame): (DataFrame, DataFrame) = {
    val cols  = spec.outlierCols
    val trainCols = columns(train, cols)
    val flags = cols.map(c =>
      c -> Outliers.fitDetector(detect, trainCols.values[Double](c), seed = c.hashCode.toLong)).toMap
    repair match {
      case "delete" =>
        val anyFlag = cols.map(c => flagged(flags(c), c)).reduce(_ || _)
        (train.filter(!anyFlag), test.filter(!anyFlag))
      case rep =>
        val stat = rep.stripPrefix("impute_")
        val fill: Map[String, Double] = cols.map { c =>
          c -> MissingValues.numericStat(trainCols.values[Double](c).filterNot(flags(c)), stat)
        }.toMap
        def repaired(df: DataFrame): DataFrame =
          cols.foldLeft(df) { (d, c) =>
            d.withColumn(c, when(flagged(flags(c), c), lit(fill(c))).otherwise(col(c)))
          }
        (repaired(train), repaired(test))
    }
  }

  def dedup(spec: DataSpec, df: DataFrame): DataFrame = {
    val key = spec.keyCol.get
    val firsts = df.select(col(key), col("rid")).collect().toSeq
      .groupMapReduce(_.get(0))(_.getLong(1))(math.min)
    df.filter(col("rid").isInCollection(firsts.values))
  }

  def inconsistencies(spec: DataSpec, train: DataFrame, test: DataFrame): (DataFrame, DataFrame) = {
    val column = spec.inconsCol.get
    val map = Inconsistencies.canonicalMap(columns(train, Seq(column)).values[String](column))
    val mergeUdf = udf { (v: String) =>
      if (v == null) null else map.getOrElse(Inconsistencies.fingerprint(v), v)
    }
    def merge(df: DataFrame): DataFrame = df.withColumn(column, mergeUdf(col(column)))
    (merge(train), merge(test))
  }

  def fix(df: DataFrame): DataFrame = df.withColumn("label", col("label_gt"))
}
