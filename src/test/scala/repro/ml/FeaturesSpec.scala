package repro.ml

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.data.Datasets

class FeaturesSpec extends SparkSpec {

  private def rowsOf(df: DataFrame): Seq[Row] = df.collect().toSeq

  private def labeled(f: Row => Vector, rows: Seq[Row]): Seq[(Vector, Double)] =
    rows.map(r => (f(r), r.getAs[Double]("label")))

  test("pipeline produces a features vector for every dataset") {
    Datasets.all.foreach { ds =>
      val rows = rowsOf(ds.clean(spark))
      val v = Features.fit(ds.spec, rows)(rows.head)
      assert(v.size > 0, ds.spec.name)
    }
  }

  test("numeric features are standardized to ~zero mean, unit variance") {
    val ds = Datasets.byName("EEG")
    val rows = rowsOf(ds.clean(spark))
    val featurize = Features.fit(ds.spec, rows)
    val dim0 = rows.map(r => featurize(r)(0))
    val mean = dim0.sum / dim0.length
    val sd = math.sqrt(dim0.map(x => (x - mean) * (x - mean)).sum / (dim0.length - 1))
    assert(math.abs(mean) < 0.05, s"mean=$mean")
    assert(math.abs(sd - 1.0) < 0.1, s"sd=$sd")
  }

  test("one-hot encoding: categorical dataset gets one slot per category") {
    val ds = Datasets.byName("Titanic")
    val rows = rowsOf(ds.clean(spark))
    val dim = Features.fit(ds.spec, rows)(rows.head).size
    // 4 numeric + (2 sex + 3 pclass + 3 embarked) one-hot (+1 "keep" slot each).
    assert(dim >= 4 + 2 + 3 + 3, s"dim=$dim")
  }

  test("unseen test categories survive via handleInvalid=keep") {
    val ds = Datasets.byName("Titanic")
    val train = ds.clean(spark)
    val featurize = Features.fit(ds.spec, rowsOf(train))
    val weird = rowsOf(train.withColumn("embarked", lit("nowhere")))
    assert(weird.map(featurize).size == train.count()) // must not throw
  }

  test("text pipeline gives different vectors to different titles") {
    val ds = Datasets.byName("Citation")
    val rows = rowsOf(ds.clean(spark))
    val featurize = Features.fit(ds.spec, rows)
    val distinct = rows.map(featurize(_).toString).distinct
    assert(distinct.length > rows.length / 2)
  }

  test("downsample balances the imbalanced analogs") {
    val ds = Datasets.byName("Credit")
    val rows = rowsOf(ds.clean(spark))
    val train = labeled(Features.fit(ds.spec, rows), rows)
    val balanced = Features.downsample(ds.spec, train, seed = 1)
    val counts = balanced.groupBy(_._2).map { case (l, rs) => l -> rs.size }
    val ratio = counts.values.min.toDouble / counts.values.max
    assert(ratio > 0.7, s"ratio=$ratio counts=$counts")
    assert(balanced.size < train.size)
  }

  test("downsample is identity for balanced datasets") {
    val ds = Datasets.byName("EEG")
    val rows = rowsOf(ds.clean(spark))
    val train = labeled(Features.fit(ds.spec, rows), rows)
    assert(Features.downsample(ds.spec, train, 1) == train)
  }

  test("pipeline statistics are arm-local: scaling differs with corrupted train") {
    val ds = Datasets.byName("EEG")
    val clean = ds.clean(spark)
    val corrupted = clean.withColumn("f1", col("f1") * 100)
    val fClean = Features.fit(ds.spec, rowsOf(clean))
    val fCorr  = Features.fit(ds.spec, rowsOf(corrupted))
    val probe = rowsOf(clean.limit(5)).head
    val a = fClean(probe)(0)
    val b = fCorr(probe)(0)
    assert(math.abs(a) > math.abs(b) * 10, s"a=$a b=$b")
  }

  test("a null numeric cell fails, as the assembler's handleInvalid=error does") {
    val ds = Datasets.byName("EEG")
    val clean = ds.clean(spark)
    val featurize = Features.fit(ds.spec, rowsOf(clean))
    val withNull = rowsOf(clean.withColumn("f1", lit(null).cast("double")).limit(1))
    intercept[IllegalArgumentException](featurize(withNull.head))
    intercept[IllegalArgumentException](Features.fit(ds.spec, withNull))
  }

  test("local downsample equals sampleBy on a one-partition frame, for Credit and KDD, seeds 0-3") {
    for (name <- Seq("Credit", "KDD"); seed <- 0L to 3L) {
      val ds = Datasets.byName(name)
      val rows = ds.clean(spark).select("rid", "label").collect().toSeq
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 1), rows.head.schema)
      val want = FeaturesReference.downsample(ds.spec, df, seed).collect().toSeq
        .map(r => (r.getLong(0), r.getDouble(1)))
      val train = rows.map(r => (Vectors.dense(r.getLong(0).toDouble), r.getDouble(1)))
      val got = Features.downsample(ds.spec, train, seed).map { case (v, l) => (v(0).toLong, l) }
      assert(got == want, s"$name seed $seed")
      assert(got.size < rows.size, s"$name seed $seed")
    }
  }
}
