package repro.clean

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.expressions.GenericRowWithSchema
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

import repro.{Oracle, SparkSpec}
import repro.core.{ErrorType, Splits}
import repro.data.{Datasets, Rows}

class DuplicatesSpec extends SparkSpec {

  private val ds = Datasets.byName("Movie")
  private val key = ds.spec.keyCol.get
  private lazy val dirty = ds.dirtyRows(ErrorType.Duplicates)

  private def keys(rows: Seq[Row]): Seq[Any] = rows.map(_.getAs[Any](key))

  test("dedup keeps exactly one row per key") {
    val out = Duplicates.dedup(ds.spec, dirty)
    assert(out.size == keys(dirty).distinct.size)
    assert(keys(out).distinct.size == out.size)
  }

  test("dedup keeps the FIRST record (smallest rid) of each key group — oracle-checked") {
    val out = Rows.frame(spark, ds.spec.schema, Duplicates.dedup(ds.spec, dirty)).select("rid")
    Oracle.assertEquivalent(
      out,
      """SELECT rid FROM (
        |  SELECT CAST(rid AS BIGINT) AS rid,
        |         ROW_NUMBER() OVER (PARTITION BY title_key
        |                            ORDER BY CAST(rid AS BIGINT)) AS rn
        |  FROM t) WHERE rn = 1""".stripMargin,
      "t" -> Rows.frame(spark, ds.spec.schema, dirty))
  }

  test("dedup keeps one record for all null keys, as a window partition does — oracle-checked") {
    val schema = StructType(Seq(StructField("rid", LongType), StructField("title_key", StringType)))
    val keyed: Seq[Row] = Seq((4L, "a"), (2L, null), (1L, "a"), (5L, null), (3L, "b"))
      .map { case (rid, k) => new GenericRowWithSchema(Array(rid, k), schema) }
    val out = Duplicates.dedup(ds.spec, keyed)
    assert(out.map(_.getLong(0)) == Seq(2L, 1L, 3L))
    Oracle.assertEquivalent(
      Rows.frame(spark, schema, out).select("rid"),
      """SELECT rid FROM (
        |  SELECT rid, ROW_NUMBER() OVER (PARTITION BY title_key ORDER BY rid) AS rn
        |  FROM t) WHERE rn = 1""".stripMargin,
      "t" -> Rows.frame(spark, schema, keyed))
  }

  test("cleaning is idempotent") {
    val once  = Duplicates.dedup(ds.spec, dirty)
    val twice = Duplicates.dedup(ds.spec, once)
    assert(once == twice)
  }

  test("train and test are deduplicated independently") {
    val (train, test) = Splits.trainTest(dirty, 1)
    val (trC, teC) = Duplicates.clean(ds.spec, train, test)
    // A key present in both halves survives in both halves.
    assert(trC.size == keys(train).distinct.size)
    assert(teC.size == keys(test).distinct.size)
  }

  test("dedup restores the original entity count on the full dataset") {
    val out = Duplicates.dedup(ds.spec, dirty)
    assert(out.size == ds.spec.rows)
  }

  test("dedup restores the clean entity set: ground-truth prior matches exactly") {
    // Movie's duplicates are minority-biased copies (plus label noise on
    // some kept-first originals), so the OBSERVED dirty prior is inflated;
    // after dedup the surviving rows are exactly the original entities and
    // their ground-truth prior equals the clean dataset's.
    def prior(rows: Seq[Row], label: String): Double =
      rows.count(_.getAs[Double](label) == 1.0).toDouble / rows.size
    val cleanPrior = prior(ds.clean(spark).collect().toSeq, "label_gt")
    assert(prior(dirty, "label") > cleanPrior + 0.03) // duplication inflates minority
    assert(math.abs(prior(Duplicates.dedup(ds.spec, dirty), "label_gt") - cleanPrior) < 1e-9)
  }
}
