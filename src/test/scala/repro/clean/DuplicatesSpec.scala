package repro.clean

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.ErrorType
import repro.data.Datasets

class DuplicatesSpec extends SparkSpec {

  private val ds = Datasets.byName("Movie")
  private lazy val dirty = ds.dirty(spark, ErrorType.Duplicates).cache()

  test("dedup keeps exactly one row per key") {
    val out = Duplicates.dedup(ds.spec, dirty)
    val key = ds.spec.keyCol.get
    assert(out.count() == dirty.select(key).distinct().count())
    assert(out.groupBy(key).count().filter(col("count") > 1).count() == 0)
  }

  test("dedup keeps the FIRST record (smallest rid) of each key group — oracle-checked") {
    val out = Duplicates.dedup(ds.spec, dirty).select("rid")
    Oracle.assertEquivalent(
      out,
      """SELECT rid FROM (
        |  SELECT CAST(rid AS BIGINT) AS rid,
        |         ROW_NUMBER() OVER (PARTITION BY title_key
        |                            ORDER BY CAST(rid AS BIGINT)) AS rn
        |  FROM t) WHERE rn = 1""".stripMargin,
      "t" -> dirty)
  }

  test("dedup keeps one record for all null keys, as a window partition does — oracle-checked") {
    val s = spark
    import s.implicits._
    val keyed = Seq((4L, Some("a")), (2L, None), (1L, Some("a")), (5L, None), (3L, Some("b")))
      .toDF("rid", "title_key")
    val out = Duplicates.dedup(ds.spec, keyed)
    assert(out.select("rid").as[Long].collect().toSeq == Seq(2L, 1L, 3L))
    Oracle.assertEquivalent(
      out.select("rid"),
      """SELECT rid FROM (
        |  SELECT rid, ROW_NUMBER() OVER (PARTITION BY title_key ORDER BY rid) AS rn
        |  FROM t) WHERE rn = 1""".stripMargin,
      "t" -> keyed)
  }

  test("cleaning is idempotent") {
    val once  = Duplicates.dedup(ds.spec, dirty)
    val twice = Duplicates.dedup(ds.spec, once)
    assert(once.count() == twice.count())
  }

  test("train and test are deduplicated independently") {
    val (train, test) = repro.core.Splits.trainTest(dirty, 1)
    val (trC, teC) = Duplicates.clean(ds.spec, train, test)
    // A key present in both halves survives in both halves.
    assert(trC.count() == train.select(ds.spec.keyCol.get).distinct().count())
    assert(teC.count() == test.select(ds.spec.keyCol.get).distinct().count())
  }

  test("dedup restores the original entity count on the full dataset") {
    val out = Duplicates.dedup(ds.spec, dirty)
    assert(out.count() == ds.spec.rows.toLong)
  }

  test("dedup restores the clean entity set: ground-truth prior matches exactly") {
    // Movie's duplicates are minority-biased copies (plus label noise on
    // some kept-first originals), so the OBSERVED dirty prior is inflated;
    // after dedup the surviving rows are exactly the original entities and
    // their ground-truth prior equals the clean dataset's.
    def gtPrior(df: org.apache.spark.sql.DataFrame): Double =
      df.filter(col("label_gt") === 1.0).count().toDouble / df.count()
    def obsPrior(df: org.apache.spark.sql.DataFrame): Double =
      df.filter(col("label") === 1.0).count().toDouble / df.count()
    val cleanPrior = gtPrior(ds.clean(spark))
    assert(obsPrior(dirty) > cleanPrior + 0.03) // duplication inflates minority
    assert(math.abs(gtPrior(Duplicates.dedup(ds.spec, dirty)) - cleanPrior) < 1e-9)
  }
}
