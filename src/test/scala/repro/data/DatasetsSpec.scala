package repro.data

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.ErrorType
import repro.core.ErrorType._

class DatasetsSpec extends SparkSpec {

  test("registry has the 13 paper datasets") {
    assert(Datasets.all.size == 13)
    assert(Datasets.all.map(_.spec.name).toSet == Set(
      "Airbnb", "Citation", "Company", "Credit", "EEG", "KDD", "Marketing",
      "Movie", "Restaurant", "Sensor", "Titanic", "University", "USCensus"))
  }

  test("error-type matrix matches paper Table 3") {
    def errs(n: String) = Datasets.byName(n).spec.errors
    assert(errs("Airbnb") == Set(MissingValues, Outliers, Duplicates))
    assert(errs("Citation") == Set(Duplicates))
    assert(errs("Company") == Set(Inconsistencies))
    assert(errs("Credit") == Set(MissingValues, Outliers))
    assert(errs("EEG") == Set(Outliers, Mislabels))
    assert(errs("KDD") == Set(MissingValues, Outliers, Mislabels))
    assert(errs("Marketing") == Set(MissingValues))
    assert(errs("Movie") == Set(Duplicates, Inconsistencies))
    assert(errs("Restaurant") == Set(Duplicates, Inconsistencies))
    assert(errs("Sensor") == Set(Outliers))
    assert(errs("Titanic") == Set(MissingValues))
    assert(errs("University") == Set(Inconsistencies))
    assert(errs("USCensus") == Set(MissingValues, Mislabels))
  }

  test("clean generation is deterministic and matches the declared schema") {
    Datasets.all.foreach { ds =>
      val a = ds.clean(spark)
      val b = ds.clean(spark)
      assert(a.schema == ds.spec.schema, ds.spec.name)
      assert(a.count() == ds.spec.rows.toLong, ds.spec.name)
      val ca = a.orderBy("rid").collect().map(_.toString)
      val cb = b.orderBy("rid").collect().map(_.toString)
      assert(ca.sameElements(cb), s"${ds.spec.name} not deterministic")
    }
  }

  test("labels are binary and label_gt matches label on clean data") {
    Datasets.all.foreach { ds =>
      val df = ds.clean(spark)
      val bad = df.filter(!col("label").isin(0.0, 1.0) ||
        col("label") =!= col("label_gt")).count()
      assert(bad == 0, ds.spec.name)
    }
  }

  test("both classes are present everywhere, with sane priors") {
    Datasets.all.foreach { ds =>
      val counts = ds.clean(spark).groupBy("label").count().collect()
        .map(r => r.getDouble(0) -> r.getLong(1)).toMap
      assert(counts.size == 2, ds.spec.name)
      val minor = counts.values.min.toDouble / counts.values.sum
      if (ds.spec.imbalanced)
        assert(minor > 0.03 && minor < 0.20, s"${ds.spec.name} minority=$minor")
      else
        assert(minor > 0.15, s"${ds.spec.name} minority=$minor")
    }
  }

  test("imbalanced analogs roughly match paper minority rates") {
    // Credit 6.7%, KDD 11% in the paper.
    def minority(n: String): Double = {
      val counts = Datasets.byName(n).clean(spark).groupBy("label").count()
        .collect().map(_.getLong(1))
      counts.min.toDouble / counts.sum
    }
    val credit = minority("Credit")
    val kdd    = minority("KDD")
    assert(credit > 0.03 && credit < 0.13, s"Credit minority=$credit")
    assert(kdd > 0.06 && kdd < 0.18, s"KDD minority=$kdd")
  }

  test("missing-value injection produces nulls at the designed rates") {
    Datasets.withError(MissingValues).foreach { ds =>
      val df = ds.dirty(spark, MissingValues)
      val spec = ds.spec
      val nMissing = spec.featureCols.map(c =>
        df.filter(col(c).isNull).count()).sum
      val rate = nMissing.toDouble / (df.count() * spec.featureCols.size)
      assert(rate > 0.01 && rate < 0.30, s"${spec.name} missing cell rate=$rate")
    }
  }

  test("outlier injection (corruption datasets) creates extreme cells") {
    for (name <- Seq("EEG", "Sensor", "Airbnb")) {
      val ds    = Datasets.byName(name)
      val clean = ds.clean(spark)
      val dirty = ds.dirty(spark, Outliers)
      val c = ds.spec.outlierCols.head
      val maxClean = clean.agg(max(abs(col(c)))).head().getDouble(0)
      val maxDirty = dirty.agg(max(abs(col(c)))).head().getDouble(0)
      assert(maxDirty > 2 * maxClean, s"$name: $maxDirty vs $maxClean")
    }
  }

  test("Credit outliers are genuine: dirty equals clean") {
    val ds = Datasets.byName("Credit")
    val a = ds.clean(spark, 0).orderBy("rid").collect().map(_.toString)
    val b = ds.dirty(spark, Outliers, seed = 0).orderBy("rid").collect().map(_.toString)
    assert(a.sameElements(b))
  }

  test("duplicate injection adds key collisions at the designed rates") {
    val expected = Map("Airbnb" -> 0.10, "Citation" -> 0.10, "Movie" -> 0.45,
      "Restaurant" -> 0.20)
    Datasets.withError(Duplicates).foreach { ds =>
      val df  = ds.dirty(spark, Duplicates)
      val n   = df.count()
      val key = ds.spec.keyCol.get
      val distinctKeys = df.select(key).distinct().count()
      val dupRate = (n - distinctKeys).toDouble / ds.spec.rows
      val exp = expected(ds.spec.name)
      // Citation titles can collide naturally, so allow slack upward.
      assert(dupRate >= exp * 0.9, s"${ds.spec.name} dup rate=$dupRate")
      assert(dupRate <= exp * 1.6 + 0.05, s"${ds.spec.name} dup rate=$dupRate")
    }
  }

  test("Movie duplicates are biased toward the minority class") {
    val ds = Datasets.byName("Movie")
    val clean = ds.clean(spark)
    val dirty = ds.dirty(spark, Duplicates)
    def prior(df: org.apache.spark.sql.DataFrame): Double =
      df.filter(col("label") === 1.0).count().toDouble / df.count()
    assert(prior(dirty) > prior(clean) + 0.03)
  }

  test("inconsistency injection creates variant spellings at designed rates") {
    val expected = Map("Company" -> 0.30, "Movie" -> 0.48, "Restaurant" -> 0.25,
      "University" -> 0.35)
    Datasets.withError(Inconsistencies).foreach { ds =>
      val c = ds.spec.inconsCol.get
      val cleanVals = ds.clean(spark).select(c).distinct().count()
      val dirty = ds.dirty(spark, Inconsistencies)
      val dirtyVals = dirty.select(c).distinct().count()
      assert(dirtyVals > cleanVals, ds.spec.name)
      // variant rate = share of cells not spelled canonically
      val canon = ds.clean(spark).select(c).distinct().collect().map(_.getString(0)).toSet
      val nonCanon = dirty.filter(!col(c).isin(canon.toSeq: _*)).count()
      val rate = nonCanon.toDouble / dirty.count()
      val exp = expected(ds.spec.name)
      assert(math.abs(rate - exp) < 0.08, s"${ds.spec.name} incons rate=$rate vs $exp")
    }
  }

  test("mislabel injection flips ~5% and keeps ground truth") {
    for (ds <- Datasets.withError(Mislabels); v <- repro.core.MislabelVariants.all) {
      val df = ds.dirty(spark, Mislabels, v)
      val n = df.count()
      val flipped = df.filter(col("label") =!= col("label_gt")).count()
      val rate = flipped.toDouble / n
      v match {
        case "uniform" => assert(rate > 0.035 && rate < 0.065, s"${ds.spec.name}/$v=$rate")
        case _         => assert(rate > 0.001 && rate < 0.06, s"${ds.spec.name}/$v=$rate")
      }
    }
  }

  test("mislabel variants flip in the intended class") {
    val ds = Datasets.byName("KDD") // imbalanced: majority = 0, minority = 1
    val major = ds.dirty(spark, Mislabels, "major")
    val minor = ds.dirty(spark, Mislabels, "minor")
    // major: flips 0 -> 1, so all mismatches have label_gt = 0
    assert(major.filter(col("label") =!= col("label_gt") && col("label_gt") === 1.0).count() == 0)
    assert(minor.filter(col("label") =!= col("label_gt") && col("label_gt") === 0.0).count() == 0)
  }

  test("relName appends the variant only for mislabels") {
    val eeg = Datasets.byName("EEG")
    assert(eeg.relName(Mislabels, "uniform") == "EEG_uniform")
    assert(eeg.relName(Outliers, "") == "EEG")
  }

  test("dirtyRows are the rows of dirty's frame, in order, with the schema's types") {
    for ((ds, e, v) <- repro.core.Specs.cells(ErrorType.all.toSet)) {
      val rows = ds.dirtyRows(e, v)
      assert(rows.forall(_.schema == ds.spec.schema))
      assert(ds.dirty(spark, e, v).collect().toSeq == rows, s"${ds.spec.name}/${e.name}$v")
    }
  }

  test("dirty() rejects error types a dataset does not have") {
    intercept[IllegalArgumentException] {
      Datasets.byName("Sensor").dirty(spark, MissingValues)
    }
  }
}
