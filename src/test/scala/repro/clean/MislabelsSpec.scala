package repro.clean

import org.apache.spark.sql.Row

import repro.SparkSpec
import repro.core.{ErrorType, Splits}
import repro.data.Datasets

class MislabelsSpec extends SparkSpec {

  private def flipped(rows: Seq[Row]): Int =
    rows.count(r => r.getAs[Double]("label") != r.getAs[Double]("label_gt"))

  test("fix restores all labels to ground truth") {
    for (v <- repro.core.MislabelVariants.all) {
      val dirty = Datasets.byName("EEG").dirtyRows(ErrorType.Mislabels, v)
      assert(flipped(dirty) > 0, v)
      assert(flipped(Mislabels.fix(dirty)) == 0, v)
    }
  }

  test("clean() fixes both train and test") {
    val ds = Datasets.byName("USCensus")
    val (train, test) = Splits.trainTest(ds.dirtyRows(ErrorType.Mislabels, "uniform"), 0)
    val (trC, teC) = Mislabels.clean(ds.spec, train, test)
    assert(flipped(trC) == 0)
    assert(flipped(teC) == 0)
  }

  test("fix only changes labels, never features") {
    val ds = Datasets.byName("EEG")
    val dirty = ds.dirtyRows(ErrorType.Mislabels, "uniform")
    val fixed = Mislabels.fix(dirty)
    def features(rows: Seq[Row]) = rows.map(r => ds.spec.featureCols.map(c => r.getAs[Any](c)))
    assert(fixed.size == dirty.size && features(fixed) == features(dirty))
  }

  test("method names match the paper (ground truth detection, flip repair)") {
    assert(Mislabels.method.detect == "ground_truth")
    assert(Mislabels.method.repair == "flip")
  }
}
