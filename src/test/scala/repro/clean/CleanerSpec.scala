package repro.clean

import org.apache.spark.sql.Row

import repro.SparkSpec
import repro.core.{ErrorType, Splits}
import repro.data.{DataSpec, Datasets, Rows}

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
  private def perturbed(spec: DataSpec, test: Seq[Row]): Seq[Row] =
    test.map(r => Rows.updated(r, spec.numeric ++ spec.categorical ++ spec.text ++ spec.keyCol) {
      case (_, null)      => null
      case (_, d: Double) => d * 1000
      case (_, _)         => s"perturbed ${r.getAs[Long]("rid")}"
    })

  for ((error, name, variant) <- datasets)
    test(s"anti-leakage: ${error.name} cleaners ignore the test frame when cleaning train") {
      val ds = Datasets.byName(name)
      val (train, test) = Splits.trainTest(ds.dirtyRows(error, variant), 0)
      val wild = perturbed(ds.spec, test)
      assert(wild != test)
      val cleaners = CleaningMethods.forError(error) ++
        (if (error == ErrorType.MissingValues) Seq(MissingValues.Deletion) else Nil)
      cleaners.foreach { c =>
        assert(c.clean(ds.spec, train, test)._1 == c.clean(ds.spec, train, wild)._1, c.method)
      }
    }
}
