package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.{Random, Try}

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{DataFrame, Row}

import repro.clean.CleaningMethods
import repro.core.ErrorType._
import repro.data.{BenchDataset, DataSpec}
import repro.ml.{Evaluate, Features, ModelAdapter, Models}
import repro.stats.Descriptive

/** Runs the experiments of one *cell* — a (dataset, error type, variant,
  * split) — producing the raw measurements for every cleaning method,
  * scenario, model, and search seed (paper §4.1).
  */
object Experiment {

  /** A fitted model: its validation score, the arm it was fit on, and its
    * local predictor over that arm's feature vectors.
    */
  final case class Fitted(valScore: Double, arm: Arm, predict: Vector => Double)

  /** A featurized training arm, on the driver: the featurizer fit on this
    * arm's training set, the downsampled sub-train rows (for the fits), the
    * validation rows, and the sub-train's class histogram for
    * degenerate-case guards.
    */
  final case class Arm(spec: DataSpec, featurize: Features.Featurizer, sub: Features.Train,
                       valRows: Seq[(Vector, Double)], classCounts: Map[Double, Long])

  /** Build a training arm from raw training rows: the featurizing, the
    * sub-train/validation split and the downsampling all run on the driver.
    */
  def buildArm(spec: DataSpec, train: Seq[Row], split: Int): Arm = {
    val featurize = Features.fit(spec, train)
    val (sub0, valFold) = Splits.subVal(train, salt = split * 131 + 17)(_.getAs[Long]("rid"))
    val sub = Features.downsample(spec, featurize.labeled(sub0), seed = split.toLong)
    Arm(spec, featurize, Features.Train(sub, featurize.attributes), featurize.labeled(valFold),
      Descriptive.counts(sub.map(_._2)))
  }

  /** `buildArm` of a frame's collected rows; `cached` is unused. */
  def buildArm(spec: DataSpec, trainRaw: DataFrame, split: Int,
               cached: ArrayBuffer[DataFrame]): Arm =
    buildArm(spec, trainRaw.collect().toSeq, split)

  private def score(predict: Vector => Double, rows: Seq[(Vector, Double)], metric: String): Double =
    Evaluate.score(rows.map { case (v, l) => (l, predict(v)) }, metric)

  /** Fit one model on an arm with random hyperparameter search (searchK
    * configs; the config with the best validation score wins). Falls back
    * to a majority-class predictor on degenerate arms or failed fits.
    */
  def fitModel(arm: Arm, adapter: ModelAdapter, metric: String,
               split: Int, seed: Int, cfg: RunConfig): Fitted = {
    val majority: Double =
      if (arm.classCounts.isEmpty) 0.0
      else Descriptive.mostFrequent(arm.classCounts)
    def constant: Fitted = {
      val predict: Vector => Double = _ => majority
      Fitted(score(predict, arm.valRows, metric), arm, predict)
    }
    if (arm.classCounts.size < 2 || arm.classCounts.values.sum < 8) return constant

    val rng = new Random(Gen.seedMix(arm.spec.name, adapter.name, split, seed))
    val configs =
      if (cfg.searchK <= 1) Seq(adapter.defaults)
      else (0 until cfg.searchK).map(_ => adapter.sample(rng))
    val modelSeed = split.toLong * 7919 + seed * 131 + adapter.name.hashCode

    val fitted = configs.flatMap { params =>
      Try {
        val predict = adapter.fit(arm.sub, params, modelSeed)
        Fitted(score(predict, arm.valRows, metric), arm, predict)
      }.toOption
    }
    if (fitted.isEmpty) constant
    else fitted.maxBy(_.valScore)
  }

  private object Gen {
    def seedMix(parts: Any*): Long =
      parts.foldLeft(1125899906842597L)((h, p) => 31 * h + p.hashCode())
  }

  /** Test-set score of a fitted model on raw test rows, featurized by its
    * arm.
    */
  def evalOn(f: Fitted, test: Seq[Row], metric: String): Double =
    score(f.predict, f.arm.featurize.labeled(test), metric)

  /** `evalOn` of a frame's collected rows. */
  def evalOn(f: Fitted, testRaw: DataFrame, metric: String): Double =
    evalOn(f, testRaw.collect().toSeq, metric)

  /** Run one cell: all methods × scenarios × models × seeds at one split,
    * on the dataset's rows. The split, the cleaners, the featurizing and
    * the scoring run on the driver; only the MLlib fits run Spark jobs.
    */
  def runCell(ds: BenchDataset, error: ErrorType, variant: String,
              full: Seq[Row], split: Int, cfg: RunConfig): Seq[Measurement] = {
    val spec   = ds.spec
    val dsName = ds.relName(error, variant)
    val metric = spec.metric
    val out    = ArrayBuffer.empty[Measurement]
    val (trainRaw, testRaw) = Splits.trainTest(full, split)
    val models = cfg.models.map(Models.byName)
    val cleaners = CleaningMethods.forError(error).filter(c =>
      cfg.methodFilter.forall(_.contains((c.method.detect, c.method.repair))))

    // Table 5 semantics: for missing values the baseline B is
    // deletion-trained; otherwise it is trained on the raw (dirty) set.
    val baseTrain =
      if (error != MissingValues) trainRaw
      else repro.clean.MissingValues.Deletion.clean(spec, trainRaw, testRaw)._1
    val armB = buildArm(spec, baseTrain, split)
    val arms = cleaners.map { c =>
      val (trC, teC) = c.clean(spec, trainRaw, testRaw)
      (c.method, buildArm(spec, trC, split), teC)
    }
    for (m <- models; seed <- 0 until cfg.seeds) {
      val fB = fitModel(armB, m, metric, split, seed, cfg)
      arms.foreach { case (method, armD, teC) =>
        val fD = fitModel(armD, m, metric, split, seed, cfg)
        val dOnCleanTest = evalOn(fD, teC, metric)
        Specs.scenariosFor(error).foreach { sc =>
          val (valB, testB) = sc match {
            case Scenario.BD => (fB.valScore, evalOn(fB, teC, metric))
            case Scenario.CD => (fD.valScore, evalOn(fD, testRaw, metric))
          }
          out += Measurement(dsName, error.name, method.detect, method.repair,
            sc.name, m.name, split, seed, valB, testB, fD.valScore, dOnCleanTest)
        }
      }
    }
    out.toSeq
  }
}
