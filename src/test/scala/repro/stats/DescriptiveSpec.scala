package repro.stats

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.clean.MissingValues
import repro.core.ErrorType.{MissingValues => Missing, Outliers}
import repro.core.Splits
import repro.data.{DataSpec, Datasets, Rows}

/** Differential tests: `Descriptive` against Spark SQL, compared with `==`
  * on the doubles.
  */
class DescriptiveSpec extends SparkSpec {

  import spark.implicits._

  /** The split-0 training sets the numeric cleaners see. */
  private lazy val trains: Seq[(String, DataSpec, DataFrame)] = for {
    name <- Seq("Credit", "EEG", "Titanic")
    ds = Datasets.byName(name)
    e <- Seq(Missing, Outliers) if ds.spec.errors(e)
  } yield (s"$name/${e.name}", ds.spec, Splits.trainTest(ds.dirty(spark, e), 0)._1.cache())

  private def eachNumericColumn(check: (String, DataFrame, String, Array[Double]) => Unit): Unit =
    for ((name, spec, train) <- trains) {
      val rows = train.collect().toSeq
      spec.numeric.foreach(c => check(name, train, c, Rows.values[Double](rows, c)))
    }

  private def sparkMode(train: DataFrame, c: String): Row =
    train.filter(col(c).isNotNull).groupBy(col(c)).count()
      .orderBy(desc("count"), asc(c)).head()

  test("mean and stddevSamp equal Spark's avg and stddev_samp bit for bit") {
    eachNumericColumn { (name, train, c, xs) =>
      val row = train.agg(avg(col(c)), stddev_samp(col(c))).head()
      assert(Descriptive.mean(xs) == row.getDouble(0), s"$name.$c avg")
      assert(Descriptive.stddevSamp(xs) == row.getDouble(1), s"$name.$c stddev_samp")
    }
  }

  test("percentile equals Spark's exact percentile at 0.25, 0.5 and 0.75") {
    val ps = Seq(0.25, 0.5, 0.75)
    eachNumericColumn { (name, train, c, xs) =>
      val row = train.agg(expr(s"percentile(`$c`, array(${ps.mkString(", ")}))")).head()
      assert(ps.map(Descriptive.percentile(xs, _)) == row.getSeq[Double](0), s"$name.$c")
    }
  }

  test("mode equals Spark's group-count order, ties to the smallest value") {
    eachNumericColumn { (name, train, c, xs) =>
      assert(Descriptive.mode(xs) == sparkMode(train, c).getDouble(0), s"$name.$c")
    }
    for ((name, spec, train) <- trains if spec.categorical.nonEmpty) {
      val rows = train.collect().toSeq
      spec.categorical.foreach { c =>
        assert(MissingValues.stringMode(Rows.values[String](rows, c)) == sparkMode(train, c).getString(0), s"$name.$c")
      }
    }
    val tied = Seq(3.0, 3.0, 1.0, 1.0, 2.0)
    assert(Descriptive.mode(tied.toArray) == 1.0)
    assert(sparkMode(tied.toDF("x"), "x").getDouble(0) == 1.0)
    assert(Descriptive.mostFrequent(Descriptive.counts(Seq("b", "a", "b", "a"))) == "a")
  }

  test("an empty column gives 0.0 and one value has no spread") {
    def spark3(xs: Seq[Double]): Row =
      xs.toDF("x").agg(avg("x"), stddev_samp("x"), expr("percentile(x, 0.5)")).head()
    val empty = spark3(Nil)
    assert((0 until 3).forall(empty.isNullAt))
    assert(Descriptive.mean(Array.empty) == 0.0)
    assert(Descriptive.stddevSamp(Array.empty) == 0.0)
    assert(Descriptive.percentile(Array.empty, 0.5) == 0.0)
    assert(Descriptive.mode(Array.empty) == 0.0)

    val one = spark3(Seq(2.5))
    assert(Descriptive.mean(Array(2.5)) == one.getDouble(0))
    assert(one.isNullAt(1) && Descriptive.stddevSamp(Array(2.5)) == 0.0)
    assert(Descriptive.percentile(Array(2.5), 0.5) == one.getDouble(2))
    assert(Descriptive.mode(Array(2.5)) == 2.5)
  }
}
