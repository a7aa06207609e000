package repro.clean

import java.util.concurrent.{Executors, TimeUnit}

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.Row

import repro.SparkSpec
import repro.core.{ErrorType, MislabelVariants, Splits}
import repro.data.{BenchDataset, Datasets, DataSpec, Rows}

/** The row split and every row cleaner, deletion included, equal with `==`
  * the DataFrame split and transforms of `CleanersReference`, row for row
  * and in order, for every dataset and error type at splits 0 and 1, and
  * on the same rows with null and NaN cells at split 0.
  */
class CleanersEquivalenceSpec extends SparkSpec {

  /** `rows` with holes: a numeric cell NaN in one row of seven and null in
    * one of eleven, a string cell null in one of five.
    */
  private def holed(spec: DataSpec, rows: Seq[Row]): Seq[Row] =
    rows.map { r =>
      val rid = r.getAs[Long]("rid")
      Rows.updated(r, spec.numeric ++ spec.categorical ++ spec.text ++ spec.keyCol) {
        case (c, _) if spec.numeric.contains(c) && rid % 7 == 3   => Double.NaN
        case (c, _) if spec.numeric.contains(c) && rid % 11 == 5  => null
        case (c, _) if !spec.numeric.contains(c) && rid % 5 == 2  => null
        case (_, v) => v
      }
    }

  private def check(ds: BenchDataset, error: ErrorType, full: Seq[Row], split: Int, clue: String): Unit =
    withClue(s"$clue split $split: ") {
      val spec = ds.spec
      val (refTrain, refTest) = CleanersReference.trainTest(Rows.frame(spark, spec.schema, full), split)
      val (train, test) = Splits.trainTest(full, split)
      assert(train == refTrain.collect().toSeq)
      assert(test == refTest.collect().toSeq)
      val cleaners = CleaningMethods.forError(error) ++
        (if (error == ErrorType.MissingValues) Seq(MissingValues.Deletion) else Nil)
      cleaners.foreach { c =>
        withClue(c.method) {
          val (trC, teC) = c.clean(spec, train, test)
          val (refTrC, refTeC) = CleanersReference.of(c.method)(spec, refTrain, refTest)
          assert(trC == refTrC.collect().toSeq)
          assert(teC == refTeC.collect().toSeq)
        }
      }
    }

  /** Run `checks` on four threads, and rethrow the first failure after all
    * have ended: the reference runs a few small Spark jobs per cleaner.
    */
  private def onFourThreads(checks: Seq[() => Unit]): Unit = {
    val pool = Executors.newFixedThreadPool(4)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try Await.result(Future.traverse(checks)(c => Future(c())), Duration.Inf)
    finally { pool.shutdown(); pool.awaitTermination(Long.MaxValue, TimeUnit.NANOSECONDS) }
  }

  ErrorType.all.foreach { error =>
    test(s"${error.name}: row split and cleaners equal the DataFrame transforms, with and without holes") {
      onFourThreads(for {
        ds <- Datasets.withError(error)
        variant <- if (error == ErrorType.Mislabels) MislabelVariants.all else Seq("")
        rows = ds.dirtyRows(error, variant)
        (input, splits) <- Seq((rows, Seq(0, 1)), (holed(ds.spec, rows), Seq(0)))
        split <- splits
      } yield () => check(ds, error, input, split,
        s"${ds.spec.name}/${error.name}$variant${if (input eq rows) "" else " holed"}"))
    }
  }

  test("the holed inputs have null and NaN cells that the cleaners see") {
    val ds = Datasets.byName("Titanic")
    val rows = holed(ds.spec, ds.dirtyRows(ErrorType.MissingValues))
    val (train, test) = Splits.trainTest(rows, 0)
    assert(train.exists(r => r.getAs[Any]("age") match { case d: Double => d.isNaN; case _ => false }))
    assert(train.exists(_.isNullAt(rows.head.fieldIndex("embarked"))))
    val (trD, _) = MissingValues.Deletion.clean(ds.spec, train, test)
    assert(trD.nonEmpty && trD.size < train.size)
    assert(MissingValues.missingCellCount(ds.spec, trD) == 0)
  }
}
