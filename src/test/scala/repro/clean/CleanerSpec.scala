package repro.clean

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.{ErrorType, Splits}
import repro.data.{DataSpec, Datasets}

/** The [[Cleaner]] contract: every statistic a cleaner uses comes from the
  * training set, so the cleaned training set does not depend on the test set.
  */
class CleanerSpec extends SparkSpec {

  /** One dataset (and mislabel variant) per error type. */
  private val datasets: Seq[(ErrorType, String, String)] = Seq(
    (ErrorType.MissingValues, "Titanic", ""), (ErrorType.Outliers, "EEG", ""),
    (ErrorType.Duplicates, "Citation", ""), (ErrorType.Inconsistencies, "University", ""),
    (ErrorType.Mislabels, "EEG", "uniform"))

  /** Numeric cells times 1000 and every string cell replaced. */
  private def perturbed(spec: DataSpec, test: DataFrame): DataFrame = {
    val numeric = spec.numeric.map(c => c -> col(c) * 1000)
    val strings = (spec.categorical ++ spec.text ++ spec.keyCol).map(c =>
      c -> when(col(c).isNotNull, concat(lit("perturbed "), col("rid").cast("string"))))
    test.withColumns((numeric ++ strings).toMap)
  }

  private def sortedRows(df: DataFrame) = df.orderBy("rid").collect().toSeq

  for ((error, name, variant) <- datasets)
    test(s"anti-leakage: ${error.name} cleaners ignore the test frame when cleaning train") {
      val ds = Datasets.byName(name)
      val (train, test) = Splits.trainTest(ds.dirty(spark, error, variant).cache(), 0)
      val wild = perturbed(ds.spec, test)
      val cleaners = CleaningMethods.forError(error) ++
        (if (error == ErrorType.MissingValues) Seq(MissingValues.Deletion) else Nil)
      cleaners.foreach { c =>
        val trClean = sortedRows(c.clean(ds.spec, train, test)._1)
        val trWild  = sortedRows(c.clean(ds.spec, train, wild)._1)
        assert(trClean == trWild, c.method)
      }
    }
}
