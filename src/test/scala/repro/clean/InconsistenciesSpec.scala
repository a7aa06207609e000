package repro.clean

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.expressions.GenericRowWithSchema
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

import repro.SparkSpec
import repro.core.{ErrorType, Splits}
import repro.data.Datasets

class InconsistenciesSpec extends SparkSpec {

  test("fingerprint: lowercase, punctuation, whitespace, token order, dups") {
    assert(Inconsistencies.fingerprint("United States") == "states united")
    assert(Inconsistencies.fingerprint("states, UNITED") == "states united")
    assert(Inconsistencies.fingerprint("united  states.") == "states united")
    assert(Inconsistencies.fingerprint("united-states") == "states united")
    assert(Inconsistencies.fingerprint("united united states") == "states united")
    assert(Inconsistencies.fingerprint("(united states)") == "states united")
  }

  test("fingerprint distinguishes genuinely different values") {
    assert(Inconsistencies.fingerprint("new york") != Inconsistencies.fingerprint("new jersey"))
    assert(Inconsistencies.fingerprint("fast food") != Inconsistencies.fingerprint("fine dining"))
  }

  test("canonical map picks the most frequent raw spelling") {
    val m = Inconsistencies.canonicalMap(Array("english language", "english language",
      "English Language", "french language"))
    assert(m(Inconsistencies.fingerprint("english language")) == "english language")
  }

  test("canonical map breaks frequency ties lexicographically") {
    val m = Inconsistencies.canonicalMap(Array("b variant", "variant b"))
    assert(m(Inconsistencies.fingerprint("b variant")) == "b variant")
  }

  private def distinct(rows: Seq[Row], c: String): Set[String] = rows.map(_.getAs[String](c)).toSet

  test("merging restores the canonical values on an injected dataset") {
    val ds = Datasets.byName("Movie")
    val (train, test) = Splits.trainTest(ds.dirtyRows(ErrorType.Inconsistencies), 0)
    val (trC, teC) = Inconsistencies.clean(ds.spec, train, test)
    val canon = distinct(ds.clean(spark).collect().toSeq, "language")
    val trVals = distinct(trC, "language")
    val teVals = distinct(teC, "language")
    assert(trVals.subsetOf(canon), s"train values after merge: $trVals")
    assert(teVals.subsetOf(canon), s"test values after merge: $teVals")
  }

  test("merged dataset matches the clean ground truth cell-for-cell") {
    val ds = Datasets.byName("University")
    val (train, test) = Splits.trainTest(ds.dirtyRows(ErrorType.Inconsistencies), 2)
    val (trC, _) = Inconsistencies.clean(ds.spec, train, test)
    val truth = ds.clean(spark).collect().map(r => r.getAs[Long]("rid") -> r.getAs[String]("state")).toMap
    val mismatches = trC.count(r => r.getAs[String]("state") != truth(r.getAs[Long]("rid")))
    assert(mismatches == 0)
  }

  test("the map is built on train; unseen test variants resolve by fingerprint") {
    val spec = Datasets.byName("Movie").spec
    val schema = StructType(Seq(StructField("rid", LongType), StructField("language", StringType)))
    def rows(xs: (Long, String)*): Seq[Row] =
      xs.map { case (rid, v) => new GenericRowWithSchema(Array(rid, v), schema) }
    val train = rows((0L, "english language"), (1L, "english language"))
    val test = rows((2L, "LANGUAGE, ENGLISH"), (3L, "martian language"))
    val (_, teC) = Inconsistencies.clean(spec, train, test)
    val vals = teC.map(_.getString(1))
    assert(vals(0) == "english language") // variant resolved via fingerprint
    assert(vals(1) == "martian language") // unknown fingerprint kept as-is
  }

  test("inconsistency rate drops to zero after merging (rate diagnostics)") {
    val ds = Datasets.byName("Company")
    val (train, test) = Splits.trainTest(ds.dirtyRows(ErrorType.Inconsistencies), 0)
    val distinctBefore = distinct(train, "country").size
    val (trC, _) = Inconsistencies.clean(ds.spec, train, test)
    val distinctAfter = distinct(trC, "country").size
    assert(distinctAfter < distinctBefore)
    assert(distinctAfter <= 6) // the six canonical countries
  }
}
