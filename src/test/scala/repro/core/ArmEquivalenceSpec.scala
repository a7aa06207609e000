package repro.core

import java.util.concurrent.{Executors, TimeUnit}

import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.ml.attribute.AttributeGroup
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.clean.CleaningMethods
import repro.core.ErrorType._
import repro.data.{BenchDataset, Datasets, DataSpec}
import repro.ml.{Features, FeaturesReference}

/** The arm `Experiment.buildArm` builds on the driver equals, with `==`, the
  * arm of the Spark ML pipeline, the DataFrame sub-train/validation split
  * and `sampleBy` (`FeaturesReference`), for every dataset and error type at
  * split 0, over the dirty (for missing values, deletion-trained) arm and
  * every cleaned arm. The frame the MLlib fits see holds the sub-train rows
  * as one partition.
  */
class ArmEquivalenceSpec extends SparkSpec {

  private def attrTypes(df: DataFrame) =
    AttributeGroup.fromStructField(df.schema(Features.FeaturesCol)).attributes.get.map(_.attrType).toSeq

  /** A test frame with every categorical unseen in one row of three and null
    * in another.
    */
  private def unseenAndNull(spec: DataSpec, test: DataFrame): DataFrame =
    spec.categorical.foldLeft(test) { (df, c) =>
      df.withColumn(c, when(col("rid") % 3 === 0, lit("never seen"))
        .when(col("rid") % 3 === 1, lit(null).cast("string")).otherwise(col(c)))
    }

  /** Assert the local arm of `train` equals the reference arm, and that
    * both featurize `test` alike, and `test` with unseen and null
    * categories.
    */
  private def assertSameArm(spec: DataSpec, train: DataFrame, test: DataFrame, clue: String): Unit =
    withClue(clue) {
      val arm = Experiment.buildArm(spec, train, 0, ArrayBuffer.empty[DataFrame])
      val ref = FeaturesReference.arm(spec, train, 0)
      try {
        val refTrain = ref.pipeline.transform(train)
        val featurized = train.collect().toSeq.map(r => (arm.featurize(r), r.getAs[Double]("label")))
        assert(featurized == FeaturesReference.rows(refTrain))
        val refSub = FeaturesReference.rows(ref.sub)
        assert(arm.sub.rows == refSub)
        assert(arm.sub.frame.rdd.getNumPartitions == 1)
        assert(FeaturesReference.rows(arm.sub.frame) == refSub)
        assert(arm.valRows == ref.valRows)
        assert(arm.classCounts == ref.classCounts)
        val tests = if (spec.categorical.isEmpty) Seq(test) else Seq(test, unseenAndNull(spec, test))
        tests.foreach { t =>
          assert(arm.rows(t) == FeaturesReference.rows(ref.pipeline.transform(t)))
        }
        assert(attrTypes(arm.sub.frame) == attrTypes(refTrain))
      } finally ref.sub.unpersist()
    }

  private def check(ds: BenchDataset, error: ErrorType, variant: String): Unit = {
    val spec = ds.spec
    val (train, test) = Splits.trainTest(ds.dirty(spark, error, variant), 0)
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

  /** Run `checks` on four threads, and rethrow the first failure after all
    * have ended: each check is a few hundred small Spark jobs, which the
    * driver schedules one by one.
    */
  private def onFourThreads(checks: Seq[() => Unit]): Unit = {
    val pool = Executors.newFixedThreadPool(4)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try Await.result(Future.traverse(checks)(c => Future(c())), Duration.Inf)
    finally { pool.shutdown(); pool.awaitTermination(Long.MaxValue, TimeUnit.NANOSECONDS) }
  }

  ErrorType.all.foreach { error =>
    test(s"${error.name}: local arms equal the Spark ML pipeline's arms at split 0") {
      onFourThreads(for (ds <- Datasets.withError(error);
                         variant <- if (error == Mislabels) MislabelVariants.all else Seq(""))
        yield () => check(ds, error, variant))
    }
  }
}
