package verdictbench

import java.util.concurrent.{Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.clean.{Cleaner, CleaningMethods, MissingValues}
import repro.core._
import repro.core.Runner.BenchmarkRelations
import repro.data.BenchDataset
import repro.ml.Models

/** `Runner.run` and `Experiment.runCell`, restated call for call through
  * the public functions of each layer so that every call gets a span:
  *
  *   data (Datasets.dirty), splits (Splits.trainTest), clean
  *   (Cleaner.clean), features (Experiment.buildArm), models
  *   (Experiment.fitModel), evaluate (Experiment.evalOn), experiment (one
  *   cell), runner (the cell pool), relations (Relations.r1/r2/r3).
  *
  * The only change in work: every cleaned training set, the deletion-trained
  * one included, is cached and counted inside its `clean` span, so the
  * cleaning it runs is not charged to the `features` span that would
  * otherwise trigger it. That adds a few jobs per cleaned arm.
  */
object TracedRunner {

  /** The cell pool of a traced grid: threads, wall time from the first
    * submission to the last cell's end, and the summed queue wait.
    */
  final case class PoolStats(threads: Int, wallNs: Long, queueWaitNs: Long)

  def run(spark: SparkSession, cfg: RunConfig, errors: Seq[ErrorType],
          datasets: Seq[BenchDataset], tracer: Tracer): BenchmarkRelations = {
    spark.conf.set("spark.sql.shuffle.partitions", "2") // as Runner.measurements does
    val fulls = Specs.cells(errors.toSet, datasets).map { case (ds, e, v) =>
      tracer.span("data", ds.spec.name) {
        val df = ds.dirty(spark, e, v).cache()
        df.count()
        ((ds, e, v), df)
      }
    }
    val threads = math.max(1, cfg.parallelism)
    val pool = Executors.newFixedThreadPool(threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    val queueWait = new AtomicLong(0)
    val rows = try {
      val t0 = System.nanoTime()
      val futures =
        for (((ds, e, v), full) <- fulls; split <- 0 until cfg.splits) yield {
          val submitted = System.nanoTime()
          Future {
            queueWait.addAndGet(System.nanoTime() - submitted)
            val cellId = s"${ds.relName(e, v)}/${e.name}/split$split"
            tracer.span("experiment", "cell", cellId)(cell(ds, e, v, full, split, cfg, tracer))
          }
        }
      val out = Await.result(Future.sequence(futures), Duration.Inf).flatten
      tracer.pool = Some(PoolStats(threads, System.nanoTime() - t0, queueWait.get()))
      out
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
      fulls.foreach(_._2.unpersist(blocking = false))
    }
    import spark.implicits._
    val meas = tracer.span("runner", "measurements") {
      val m = rows.toDF().cache()
      m.count()
      m
    }
    tracer.span("relations", "r1r2r3") {
      BenchmarkRelations(meas, Relations.r1(meas, cfg.alpha),
        Relations.r2(meas, cfg.alpha), Relations.r3(meas, cfg.alpha))
    }
  }

  private def cell(ds: BenchDataset, error: ErrorType, variant: String, full: DataFrame,
                   split: Int, cfg: RunConfig, tracer: Tracer): Seq[Measurement] = {
    val spec   = ds.spec
    val dsName = ds.relName(error, variant)
    val metric = spec.metric
    val cached = ArrayBuffer.empty[DataFrame]
    val out    = ArrayBuffer.empty[Measurement]

    def arm(train: DataFrame) =
      tracer.span("features", "buildArm")(Experiment.buildArm(spec, train, split, cached))
    def fit(a: Experiment.Arm, m: repro.ml.ModelAdapter, seed: Int) =
      tracer.span("models", m.name)(Experiment.fitModel(a, m, metric, split, seed, cfg))
    def eval(f: Experiment.Fitted, test: DataFrame) =
      tracer.span("evaluate", "evalOn")(Experiment.evalOn(f, test, metric))

    try {
      val (trainRaw, testRaw) = tracer.span("splits", "trainTest") {
        val (tr0, te0) = Splits.trainTest(full, split)
        val tr = tr0.cache(); val te = te0.cache()
        cached += tr; cached += te
        tr.count(); te.count()
        (tr, te)
      }
      val models = cfg.models.map(Models.byName)
      val cleaners = CleaningMethods.forError(error).filter(c =>
        cfg.methodFilter.forall(_.contains((c.method.detect, c.method.repair))))
      def cleaned(c: Cleaner) = {
        val (trC, teC) = tracer.span("clean", c.method.detect) {
          val (trC0, teC0) = c.clean(spec, trainRaw, testRaw)
          val trC = trC0.cache(); cached += trC; trC.count()
          val teC = teC0.cache(); cached += teC; teC.count()
          (trC, teC)
        }
        (c.method, arm(trC), teC)
      }

      if (error == ErrorType.MissingValues) {
        val delTrain = tracer.span("clean", MissingValues.Deletion.method.detect) {
          val tr = MissingValues.Deletion.clean(spec, trainRaw, testRaw)._1.cache()
          cached += tr; tr.count()
          tr
        }
        val armB = arm(delTrain)
        val arms = cleaners.map(cleaned)
        for (m <- models; seed <- 0 until cfg.seeds) {
          val fB = fit(armB, m, seed)
          arms.foreach { case (method, armD, teC) =>
            val fD = fit(armD, m, seed)
            out += Measurement(dsName, error.name, method.detect, method.repair,
              Scenario.BD.name, m.name, split, seed,
              fB.valScore, eval(fB, teC), fD.valScore, eval(fD, teC))
          }
        }
      } else {
        val armDirty = arm(trainRaw)
        val arms = cleaners.map(cleaned)
        for (m <- models; seed <- 0 until cfg.seeds) {
          val fDirty = fit(armDirty, m, seed)
          arms.foreach { case (method, armC, teC) =>
            val fClean = fit(armC, m, seed)
            val cleanOnCleanTest = eval(fClean, teC)
            out += Measurement(dsName, error.name, method.detect, method.repair,
              Scenario.BD.name, m.name, split, seed,
              fDirty.valScore, eval(fDirty, teC), fClean.valScore, cleanOnCleanTest)
            out += Measurement(dsName, error.name, method.detect, method.repair,
              Scenario.CD.name, m.name, split, seed,
              fClean.valScore, eval(fClean, testRaw), fClean.valScore, cleanOnCleanTest)
          }
        }
      }
      out.toSeq
    } finally {
      cached.foreach(_.unpersist(blocking = false))
    }
  }
}
