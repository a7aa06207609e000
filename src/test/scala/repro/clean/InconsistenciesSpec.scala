package repro.clean

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.ErrorType
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

  test("merging restores the canonical values on an injected dataset") {
    val ds = Datasets.byName("Movie")
    val dirty = ds.dirty(spark, ErrorType.Inconsistencies)
    val (train, test) = repro.core.Splits.trainTest(dirty, 0)
    val (trC, teC) = Inconsistencies.clean(ds.spec, train, test)
    val canon = ds.clean(spark).select("language").distinct()
      .collect().map(_.getString(0)).toSet
    val trVals = trC.select("language").distinct().collect().map(_.getString(0)).toSet
    val teVals = teC.select("language").distinct().collect().map(_.getString(0)).toSet
    assert(trVals.subsetOf(canon), s"train values after merge: $trVals")
    assert(teVals.subsetOf(canon), s"test values after merge: $teVals")
  }

  test("merged dataset matches the clean ground truth cell-for-cell") {
    val ds = Datasets.byName("University")
    val dirty = ds.dirty(spark, ErrorType.Inconsistencies)
    val (train, test) = repro.core.Splits.trainTest(dirty, 2)
    val (trC, _) = Inconsistencies.clean(ds.spec, train, test)
    val cleanTruth = ds.clean(spark)
    val joined = trC.alias("a").join(cleanTruth.alias("b"), "rid")
    val mismatches = joined.filter(col("a.state") =!= col("b.state")).count()
    assert(mismatches == 0)
  }

  test("the map is built on train; unseen test variants resolve by fingerprint") {
    import spark.implicits._
    val spec = Datasets.byName("Movie").spec
    val train = Seq((0L, "english language"), (1L, "english language"))
      .toDF("rid", "language")
    val test = Seq((2L, "LANGUAGE, ENGLISH"), (3L, "martian language"))
      .toDF("rid", "language")
    val (_, teC) = Inconsistencies.clean(spec, train, test)
    val vals = teC.orderBy("rid").collect().map(_.getString(1))
    assert(vals(0) == "english language") // variant resolved via fingerprint
    assert(vals(1) == "martian language") // unknown fingerprint kept as-is
  }

  test("inconsistency rate drops to zero after merging (rate diagnostics)") {
    val ds = Datasets.byName("Company")
    val dirty = ds.dirty(spark, ErrorType.Inconsistencies)
    val (train, test) = repro.core.Splits.trainTest(dirty, 0)
    val distinctBefore = train.select("country").distinct().count()
    val (trC, _) = Inconsistencies.clean(ds.spec, train, test)
    val distinctAfter = trC.select("country").distinct().count()
    assert(distinctAfter < distinctBefore)
    assert(distinctAfter <= 6) // the six canonical countries
  }
}
