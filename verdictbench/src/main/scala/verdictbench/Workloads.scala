package verdictbench

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.core.Runner.BenchmarkRelations
import repro.data.{BenchDataset, Datasets}

/** One benchmark workload: a measurement grid whose verdict is produced
  * through the public entry points (`Runner.run`, then
  * `Runner.printTable15` for every error type). Its data come from
  * `Datasets.dirty` with seed 0, so the benchmark seed does not reach it,
  * and its output is checked against a fixed reference digest.
  */
final case class Workload(name: String, errors: Seq[ErrorType], datasets: Seq[BenchDataset],
                          cfg: RunConfig, reference: Option[String]) {

  private def kept(detect: String, repair: String) =
    cfg.methodFilter.forall(_.contains((detect, repair)))

  /** The specs of R1, R2 and R3 for this workload's grid. */
  def r1Specs: Seq[Specs.R1Spec] =
    Specs.r1(cfg.models, errors.toSet, datasets).filter(s => kept(s.detect, s.repair))
  def r2Specs: Seq[Specs.R2Spec] =
    Specs.r2(errors.toSet, datasets).filter(s => kept(s.detect, s.repair))
  def r3Specs: Seq[(String, String, String)] =
    r2Specs.map(s => (s.dataset, s.error, s.scenario)).distinct

  /** Measurement rows one verdict produces. */
  def rows: Int = r1Specs.size * cfg.splits * cfg.seeds

  /** The grid's output is fixed, so its digest must match the reference. */
  def checkDigest(digest: String): Seq[String] =
    reference match {
      case None => Seq(s"no reference digest for $name; this pass gave $digest")
      case Some(r) if r != digest => Seq(s"digest $digest, reference $r")
      case _ => Nil
    }

  /** Produce the verdict: relations, then every Q block printed. */
  def verdict(spark: SparkSession): BenchmarkRelations = {
    val rel = Runner.run(spark, cfg, errors.toSet, datasets)
    errors.foreach(Runner.printTable15(rel, _))
    rel
  }

  /** The same verdict with every layer call wrapped in a span. */
  def tracedVerdict(spark: SparkSession, tracer: Tracer): BenchmarkRelations = {
    val rel = TracedRunner.run(spark, cfg, errors, datasets, tracer)
    errors.foreach(e => tracer.span("queries", e.name)(Runner.printTable15(rel, e)))
    rel
  }
}

object Workload {

  /** Cell parallelism: one cell per core, as the default of 12 would
    * oversubscribe a small machine.
    */
  val cores: Int = Runtime.getRuntime.availableProcessors()

  /** The models the grids fit; the traced run reports each one's fits. */
  val gridModels: Seq[String] = Seq("adaboost", "naive_bayes")

  private def ds(names: String*) = names.map(Datasets.byName)

  def byName(name: String, parallelism: Int, references: Map[String, String]): Workload = {
    def grid(errors: Seq[ErrorType], datasets: Seq[BenchDataset], models: Seq[String],
             methods: Option[Set[(String, String)]]) =
      Workload(name, errors, datasets,
        RunConfig(splits = 2, seeds = 1, searchK = 1, parallelism = parallelism,
          models = models, methodFilter = methods),
        references.get(name))
    name match {
      case "fit_grid" =>
        grid(Seq(ErrorType.Inconsistencies), ds("University"), gridModels, None)
      case "clean_grid" =>
        grid(Seq(ErrorType.Outliers, ErrorType.MissingValues), ds("Credit"), Seq("naive_bayes"),
          Some(Set(("IF", "delete"), ("empty_entry", "mean_mode"))))
      case other => sys.error(s"unknown workload: $other")
    }
  }
}
