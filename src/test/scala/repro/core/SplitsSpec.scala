package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.data.Datasets

class SplitsSpec extends SparkSpec {

  private lazy val df = Datasets.byName("EEG").clean(spark).cache()

  test("train/test is roughly 70/30") {
    val (tr, te) = Splits.trainTest(df, 0)
    val total = df.count().toDouble
    val frac = tr.count() / total
    assert(frac > 0.62 && frac < 0.78, s"train frac=$frac")
    assert(tr.count() + te.count() == df.count())
  }

  test("split is deterministic") {
    val (tr1, _) = Splits.trainTest(df, 3)
    val (tr2, _) = Splits.trainTest(df, 3)
    assert(tr1.select("rid").collect().map(_.getLong(0)).sorted
      .sameElements(tr2.select("rid").collect().map(_.getLong(0)).sorted))
  }

  test("train and test are disjoint") {
    val (tr, te) = Splits.trainTest(df, 1)
    assert(tr.join(te, "rid").count() == 0)
  }

  test("different seeds give different splits") {
    val (tr0, _) = Splits.trainTest(df, 0)
    val (tr1, _) = Splits.trainTest(df, 1)
    val a = tr0.select("rid").collect().map(_.getLong(0)).toSet
    val b = tr1.select("rid").collect().map(_.getLong(0)).toSet
    assert(a != b)
    // Roughly independent: overlap near 70% of 70%.
    val overlap = a.intersect(b).size.toDouble / a.size
    assert(overlap > 0.5 && overlap < 0.9, s"overlap=$overlap")
  }

  private def rids(df: org.apache.spark.sql.DataFrame): Seq[Long] =
    df.select("rid").collect().map(_.getLong(0)).toSeq

  test("sub/val split is roughly 80/20, disjoint, deterministic") {
    val (tr, _) = Splits.trainTest(df, 0)
    val rows = rids(tr)
    val (sub, valF) = Splits.subVal(rows, 17)(identity)
    val frac = sub.size.toDouble / rows.size
    assert(frac > 0.72 && frac < 0.88, s"sub frac=$frac")
    assert(sub.intersect(valF).isEmpty)
    assert(sub.size + valF.size == rows.size)
    val (sub2, _) = Splits.subVal(rows, 17)(identity)
    assert(sub == sub2)
  }

  test("validation split is independent of the train/test hash") {
    // Same salt on different base sets still gives ~80/20.
    val (tr, te) = Splits.trainTest(df, 5)
    val (s1, v1) = Splits.subVal(rids(tr), 99)(identity)
    val (s2, v2) = Splits.subVal(rids(te), 99)(identity)
    assert(v1.size > 0 && v2.size > 0)
    assert(s1.size > 3 * v1.size / 2)
    assert(s2.size > 3 * v2.size / 2)
  }

  test("the local train/test bucket equals pmod(xxhash64(rid, seed), 100) for every dataset's rids, seeds 0-19") {
    import spark.implicits._
    val rids = Specs.cells(ErrorType.all.toSet).flatMap { case (ds, e, v) =>
      ds.dirtyRows(e, v).map(_.getAs[Long]("rid"))
    }.distinct
    val cols = col("rid") +: (0 until 20).map(s => pmod(xxhash64(col("rid"), lit(s)), lit(100)).cast("int"))
    val want = rids.toDF("rid").select(cols: _*).collect()
    assert(want.length == rids.size)
    want.foreach { r =>
      val rid = r.getLong(0)
      assert((0 until 20).map(Splits.trainBucket(rid, _)) == (1 to 20).map(r.getInt), s"rid $rid")
    }
  }

  test("the row split keeps the DataFrame filter's rows in order") {
    val rows = df.collect().toSeq
    for (seed <- Seq(0, 7)) {
      val bucket = pmod(xxhash64(col("rid"), lit(seed)), lit(100))
      val (tr, te) = Splits.trainTest(rows, seed)
      assert(tr == df.filter(bucket < 70).collect().toSeq)
      assert(te == df.filter(bucket >= 70).collect().toSeq)
    }
  }

  test("the local bucket equals pmod(xxhash64(rid, salt, \"validation\"), 100)") {
    for (salt <- Seq(17, 148, 279, -5)) {
      val want = df.select(col("rid"),
        pmod(xxhash64(col("rid"), lit(salt), lit("validation")), lit(100)).cast("int"))
        .collect().map(r => r.getLong(0) -> r.getInt(1)).toSeq
      val got = want.map { case (rid, _) => rid -> Splits.validationBucket(rid, salt) }
      assert(got == want, s"salt $salt")
    }
  }
}
