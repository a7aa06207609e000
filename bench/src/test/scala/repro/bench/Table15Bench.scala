package repro.bench

import org.apache.spark.sql.{DataFrame, Encoders}

import repro.SparkSpec
import repro.core._

/** Base for the Table-15 bench suites: runs the full measurement grid for
  * one error type at the configured scale (CLEANML_SPLITS etc., paper
  * protocol = 20 splits / 5 seeds), derives R1/R2/R3, prints every query
  * block with the paper's numbers alongside, and asserts the qualitative
  * shape the paper reports.
  */
trait Table15Bench extends SparkSpec {
  def error: ErrorType

  lazy val cfg: RunConfig = RunConfig.fromEnv
  lazy val rel: Runner.BenchmarkRelations = {
    val t0 = System.nanoTime()
    val r = Runner.run(spark, cfg, Set(error))
    Console.err.println(f"[bench] ${error.name} grid: ${(System.nanoTime() - t0) / 1e9}%.1f s " +
      s"(${r.measurements.count()} measurements, cfg=$cfg)")
    r
  }

  /** flag -> count over a relation, optionally restricted by a predicate. */
  def flagCounts(relation: DataFrame, where: String = "true"): Map[String, Long] =
    relation.filter(s"error_type = '${error.name}' AND ($where)")
      .groupBy("flag").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap.withDefaultValue(0L)

  def share(c: Map[String, Long], flag: String): Double = {
    val total = c.values.sum
    if (total == 0) 0.0 else c(flag).toDouble / total
  }

  /** Per-split mean difference (d - b) of the R1 pairs under a predicate
    * on their spec columns.
    */
  def meanDiff(where: String): Double = {
    val meas = rel.measurements.filter(where).as(Encoders.product[Measurement]).collect().toSeq
    val pairs = Relations.r1Pairs(meas)
    pairs.map(p => p.d - p.b).sum / pairs.size
  }

  test(s"print Table 15 blocks for ${error.name} (paper numbers alongside)") {
    Runner.printTable15(rel, error)
  }

  test("relations cover exactly the paper's specification counts") {
    assert(rel.r1.count() == Specs.r1(cfg.models, Set(error)).size.toLong)
    assert(rel.r2.count() == Specs.r2(Set(error)).size.toLong)
    assert(rel.r3.count() == Specs.r3(Set(error)).size.toLong)
  }
}
