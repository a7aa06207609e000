package repro.core

import java.io.{ByteArrayOutputStream, PrintStream}
import java.nio.charset.StandardCharsets.UTF_8

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.core.ErrorType._
import repro.data.{BenchDataset, Datasets, DataSpec, Gen}

/** Small end-to-end run of the full pipeline (one error type, two models,
  * few splits) — the full grid runs under bench/.
  */
class RunnerSpec extends SparkSpec {

  private val cfg = RunConfig(splits = 2, seeds = 1, searchK = 1,
    parallelism = 4, models = Seq("decision_tree", "naive_bayes"))

  private lazy val rel = Runner.run(spark, cfg, Set(Inconsistencies))

  test("measurement grid covers every spec at every split") {
    val meas = rel.measurements
    val expected = Specs.r1(cfg.models, Set(Inconsistencies))
    // inconsistencies: 4 datasets × 1 method × 2 scenarios × 2 models
    assert(expected.size == 16)
    assert(meas.count() == expected.size.toLong * cfg.splits)
    val got = meas.select("dataset", "error_type", "detect", "repair", "model", "scenario")
      .distinct().collect()
      .map(r => Specs.R1Spec(r.getString(0), r.getString(1), r.getString(2),
        r.getString(3), r.getString(4), r.getString(5))).toSet
    assert(got == expected.toSet)
  }

  test("R1 has one flagged row per spec") {
    assert(rel.r1.count() == 16)
    val flags = rel.r1.select("flag").distinct().collect().map(_.getString(0)).toSet
    assert(flags.subsetOf(Set("P", "S", "N")))
  }

  test("R2 and R3 have the selected-down spec counts") {
    assert(rel.r2.count() == 8)  // 4 datasets × 2 scenarios
    assert(rel.r3.count() == 8)  // same: only one cleaning method for inconsistencies
  }

  test("metrics are valid probabilities") {
    val bad = rel.measurements.filter(
      "test_b < 0 OR test_b > 1 OR test_d < 0 OR test_d > 1 OR " +
      "val_b < 0 OR val_b > 1 OR val_d < 0 OR val_d > 1").count()
    assert(bad == 0)
  }

  test("measurements restores the caller's shuffle-partition setting") {
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    spark.conf.set(key, "7")
    try {
      Runner.measurements(spark, cfg.copy(splits = 1, models = Seq("naive_bayes")),
        Set(Inconsistencies), Seq(Datasets.byName("University")))
      assert(spark.conf.get(key) == "7")
    } finally spark.conf.set(key, before)
  }

  test("measurements restores the caller's setting and releases its frames when a dataset fails to build") {
    object Broken extends BenchDataset {
      val spec = DataSpec(name = "Broken", rows = 10, numeric = Seq("x"), categorical = Nil,
        errors = Set(Inconsistencies))
      protected def genClean(rng: Gen.Rng): IndexedSeq[Gen.MRow] = sys.error("generator failed")
      protected def inject(rows: IndexedSeq[Gen.MRow], error: ErrorType, variant: String,
                           rng: Gen.Rng): IndexedSeq[Gen.MRow] = rows
    }
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    val persisted = spark.sparkContext.getPersistentRDDs.keySet
    spark.conf.set(key, "7")
    try {
      val e = intercept[RuntimeException] {
        Runner.measurements(spark, cfg.copy(splits = 1, models = Seq("naive_bayes")),
          Set(Inconsistencies), Seq(Datasets.byName("University"), Broken))
      }
      assert(e.getMessage == "generator failed")
      assert(spark.conf.get(key) == "7")
      assert(spark.sparkContext.getPersistentRDDs.keySet == persisted)
    } finally spark.conf.set(key, before)
  }

  test("printTable15 renders without error") {
    Runner.printTable15(rel, Inconsistencies)
  }

  /** A small inconsistencies grid: University and Company, naive Bayes. */
  private val small = cfg.copy(models = Seq("naive_bayes"))
  private val smallData = Seq(Datasets.byName("University"), Datasets.byName("Company"))

  /** What `body` prints to `Console.out`. */
  private def printed(body: => Unit): String = {
    val out = new ByteArrayOutputStream()
    Console.withOut(new PrintStream(out, true, UTF_8))(body)
    out.toString(UTF_8)
  }

  private val CallerKey = "repro.test.caller"

  /** The Spark local property `CallerKey` of every job started by `body`. */
  private def jobsStartedBy(body: => Unit): Seq[Option[String]] = {
    val sc = spark.sparkContext
    val seen = ArrayBuffer.empty[Option[String]]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = seen.synchronized {
        seen += Option(e.properties).flatMap(p => Option(p.getProperty(CallerKey)))
      }
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try { body; ListenerBusAccess.drain(sc) }
    finally sc.removeSparkListener(listener)
    seen.synchronized(seen.toList)
  }

  private def sortedRows(df: DataFrame): Seq[String] =
    df.collect().map(_.toSeq.mkString("\t")).toSeq.sorted

  /** A dataset whose one numeric column is null: its cells fail to
    * featurize their arm's training rows, before any Spark job.
    */
  private object NullFeature extends BenchDataset {
    val spec = DataSpec(name = "NullFeature", rows = 40, numeric = Seq("x"), categorical = Nil,
      errors = Set(Inconsistencies))
    protected def genClean(rng: Gen.Rng): IndexedSeq[Gen.MRow] = (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      r("rid") = i.toLong; r("label") = (i % 2).toDouble; r("label_gt") = (i % 2).toDouble
      r
    }
    protected def inject(rows: IndexedSeq[Gen.MRow], error: ErrorType, variant: String,
                         rng: Gen.Rng): IndexedSeq[Gen.MRow] = rows
  }

  test("a failing cell: measurements rethrows only after every cell has ended") {
    val sc = spark.sparkContext
    // Decision trees fit on Spark: University's cells take the pool first
    // and start jobs; Company's are still queued when NullFeature's fail.
    val failing = cfg.copy(splits = 6, parallelism = 2, models = Seq("decision_tree"))
    val jobsInCall = jobsStartedBy {
      val e = intercept[IllegalArgumentException] {
        Runner.measurements(spark, failing, Set(Inconsistencies),
          Seq(smallData.head, NullFeature, smallData.last))
      }
      assert(e.getMessage.contains("NullFeature: x is null or NaN"))
      ListenerBusAccess.drain(sc)
      assert(sc.statusTracker.getActiveJobIds().isEmpty)
    }
    val jobsAfter = jobsStartedBy(Thread.sleep(500))
    assert(jobsInCall.nonEmpty && jobsAfter.isEmpty)
  }

  test("printTable15 prints byte-identical text to the block-by-block queries") {
    val rel = Table15Reference.relations(spark)
    // Duplicates has no rows; missing values has no Q2; R3 has no Q4.
    for (e <- Seq(Inconsistencies, Outliers, MissingValues, Duplicates)) {
      val got = printed(Runner.printTable15(rel, e))
      val want = printed(Table15Reference.printTable15(rel, e))
      withClue(e.name) { assert(got == want) }
    }
    val outliers = printed(Runner.printTable15(rel, Outliers))
    assert(outliers.contains("== Q4.1 [R2, outliers]") && !outliers.contains("== Q4.1 [R3, outliers]"))
    assert(outliers.contains("  ∅ "))
    assert(!printed(Runner.printTable15(rel, MissingValues)).contains("== Q2"))
  }

  test("every job of run and printTable15 carries the caller's local properties") {
    val sc = spark.sparkContext
    def tagged(tag: String)(body: => Unit): Seq[Option[String]] =
      jobsStartedBy {
        sc.setLocalProperty(CallerKey, tag)
        try body finally sc.setLocalProperty(CallerKey, null)
      }
    // The relations start no job, so run's only jobs are its MLlib fits:
    // decision trees fit on Spark, naive Bayes on the driver.
    var rel: Runner.BenchmarkRelations = null
    val runJobs = tagged("run") {
      rel = Runner.run(spark, small.copy(models = Seq("decision_tree")), Set(Inconsistencies),
        smallData.take(1))
    }
    val printJobs = tagged("print")(printed(Runner.printTable15(rel, Inconsistencies)))
    assert(runJobs.nonEmpty && runJobs.forall(_.contains("run")))
    assert(printJobs.nonEmpty && printJobs.forall(_.contains("print")))
  }

  test("run and the frame adapters agree, at parallelism 1 and 4") {
    val rows = for (p <- Seq(1, 4)) yield {
      val c = small.copy(parallelism = p)
      val rel = Runner.run(spark, c, Set(Inconsistencies), smallData)
      val meas = rel.measurements
      val adapters = Seq(Relations.r1(meas, c.alpha), Relations.r2(meas, c.alpha),
        Relations.r3(meas, c.alpha))
      Seq(rel.r1, rel.r2, rel.r3).zip(adapters).foreach { case (got, want) =>
        assert(sortedRows(got) == sortedRows(want))
      }
      (sortedRows(meas), sortedRows(rel.r1), sortedRows(rel.r2), sortedRows(rel.r3))
    }
    assert(rows(0) == rows(1))
  }
}
