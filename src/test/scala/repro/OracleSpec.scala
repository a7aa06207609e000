package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle's own plumbing: it must accept an equal result and
  * reject a wrong one or a mis-aliased column.
  */
class OracleSpec extends SparkSpec {

  import spark.implicits._

  private lazy val t =
    Seq(("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5), ("a", 6)).toDF("k", "v").cache()

  private val sql = "SELECT k, COUNT(*) AS cnt FROM t GROUP BY k"

  test("oracle agrees with Spark on a grouped aggregate") {
    val got = t.groupBy("k").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(got, sql, "t" -> t)
  }

  test("oracle catches wrong results") {
    val wrong = t.groupBy("k").agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "t" -> t)
    }
  }

  test("oracle rejects column mismatches") {
    val got = t.groupBy("k").agg(count(lit(1)).as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, sql, "t" -> t)
    }
  }
}
