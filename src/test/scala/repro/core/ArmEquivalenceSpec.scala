package repro.core

import org.apache.spark.ml.attribute.AttributeGroup
import org.apache.spark.sql.{DataFrame, Row}

import repro.SparkSpec
import repro.clean.CleaningMethods
import repro.core.ErrorType._
import repro.data.{BenchDataset, Datasets, DataSpec, Rows}
import repro.ml.{Features, FeaturesReference}

/** The arm `Experiment.buildArm` builds on the driver from a cell's rows
  * equals, with `==`, the arm of the Spark ML pipeline, the DataFrame
  * sub-train/validation split and `sampleBy` (`FeaturesReference`) on the
  * same rows as a one-partition frame, for every dataset and error type at
  * split 0, over the dirty (for missing values, deletion-trained) arm and
  * every cleaned arm. The frame the MLlib fits see holds the sub-train rows
  * as one partition.
  */
class ArmEquivalenceSpec extends SparkSpec {

  private def attrTypes(df: DataFrame) =
    AttributeGroup.fromStructField(df.schema(Features.FeaturesCol)).attributes.get.map(_.attrType).toSeq

  /** Test rows with every categorical unseen in one row of three and null
    * in another.
    */
  private def unseenAndNull(spec: DataSpec, test: Seq[Row]): Seq[Row] =
    test.map { r =>
      val rid = r.getAs[Long]("rid")
      Rows.updated(r, spec.categorical)((_, v) =>
        if (rid % 3 == 0) "never seen" else if (rid % 3 == 1) null else v)
    }

  /** Assert the local arm of `train` equals the reference arm, and that
    * both featurize `test` alike, and `test` with unseen and null
    * categories.
    */
  private def assertSameArm(spec: DataSpec, train: Seq[Row], test: Seq[Row], clue: String): Unit =
    withClue(clue) {
      val arm = Experiment.buildArm(spec, train, 0)
      val trainFrame = Rows.frame(spark, spec.schema, train)
      val ref = FeaturesReference.arm(spec, trainFrame, 0)
      try {
        val refTrain = ref.pipeline.transform(trainFrame)
        assert(arm.featurize.labeled(train) == FeaturesReference.rows(refTrain))
        val refSub = FeaturesReference.rows(ref.sub)
        assert(arm.sub.rows == refSub)
        assert(arm.sub.frame.rdd.getNumPartitions == 1)
        assert(FeaturesReference.rows(arm.sub.frame) == refSub)
        assert(arm.valRows == ref.valRows)
        assert(arm.classCounts == ref.classCounts)
        val tests = if (spec.categorical.isEmpty) Seq(test) else Seq(test, unseenAndNull(spec, test))
        tests.foreach { t =>
          assert(arm.featurize.labeled(t) ==
            FeaturesReference.rows(ref.pipeline.transform(Rows.frame(spark, spec.schema, t))))
        }
        assert(attrTypes(arm.sub.frame) == attrTypes(refTrain))
      } finally ref.sub.unpersist()
    }

  private def check(ds: BenchDataset, error: ErrorType, variant: String): Unit = {
    val spec = ds.spec
    val (train, test) = Splits.trainTest(ds.dirtyRows(error, variant), 0)
    val cleaned = CleaningMethods.forError(error).map(c => (c.method, c.clean(spec, train, test)))
    if (error == MissingValues) {
      val deletion = repro.clean.MissingValues.Deletion.clean(spec, train, test)._1
      assertSameArm(spec, deletion, cleaned.head._2._2, s"${spec.name}/${error.name} deletion")
    } else {
      assertSameArm(spec, train, test, s"${spec.name}/${error.name}$variant dirty")
    }
    cleaned.foreach { case (m, (trC, teC)) =>
      assertSameArm(spec, trC, teC, s"${spec.name}/${error.name}$variant ${m.detect}/${m.repair}")
    }
  }

  ErrorType.all.foreach { error =>
    test(s"${error.name}: local arms equal the Spark ML pipeline's arms at split 0") {
      onFourThreads(for (ds <- Datasets.withError(error);
                         variant <- if (error == Mislabels) MislabelVariants.all else Seq(""))
        yield () => check(ds, error, variant))
    }
  }
}
