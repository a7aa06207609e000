package repro.core

/** The five error types of the CleanML benchmark (paper §3.1). */
sealed abstract class ErrorType(val name: String) extends Serializable
object ErrorType {
  case object MissingValues   extends ErrorType("missing_values")
  case object Outliers        extends ErrorType("outliers")
  case object Duplicates      extends ErrorType("duplicates")
  case object Inconsistencies extends ErrorType("inconsistencies")
  case object Mislabels       extends ErrorType("mislabels")

  val all: Seq[ErrorType] =
    Seq(MissingValues, Outliers, Duplicates, Inconsistencies, Mislabels)

  def of(s: String): ErrorType =
    all.find(_.name == s).getOrElse(sys.error(s"unknown error type: $s"))
}

/** Cleaning scenarios (paper §3.4, Tables 4–5). BD compares a dirty-trained
  * vs a clean-trained model on the clean test set; CD compares the
  * clean-trained model on the dirty vs the clean test set. For missing
  * values only BD exists (deletion-trained vs imputation-trained, both
  * evaluated on the imputed test set).
  */
sealed abstract class Scenario(val name: String) extends Serializable
object Scenario {
  case object BD extends Scenario("BD")
  case object CD extends Scenario("CD")
  val all: Seq[Scenario] = Seq(BD, CD)
}

/** A cleaning method = (error detection, error repair) pair (paper Table 2). */
final case class Method(detect: String, repair: String)

/** Flags summarizing the impact of cleaning on ML (paper §2.1). */
object Flag {
  val Positive      = "P"
  val Insignificant = "S"
  val Negative      = "N"
  val all: Seq[String] = Seq(Positive, Insignificant, Negative)

  /** The paper rule over the corrected p-values of the two-, upper- and
    * lower-tailed tests: P if p0 and p1 are below alpha, N if p0 and p2
    * are, S otherwise.
    */
  def of(p0Adj: Double, p1Adj: Double, p2Adj: Double, alpha: Double): String =
    if (p0Adj < alpha && p1Adj < alpha) Positive
    else if (p0Adj < alpha && p2Adj < alpha) Negative
    else Insignificant
}

/** Mislabel injection variants (paper §3.1.5): uniform class noise and the
  * two pairwise directions (flip in the majority / the minority class).
  */
object MislabelVariants {
  val all: Seq[String] = Seq("uniform", "major", "minor")
}

/** One raw measurement of the grid: for spec (dataset, error, method,
  * scenario, model) at a given split and search seed, the validation and
  * test metrics of the "before" (b) and "after" (d) sides of the scenario.
  */
final case class Measurement(
    dataset: String, error_type: String, detect: String, repair: String,
    scenario: String, model: String, split: Int, seed: Int,
    val_b: Double, test_b: Double, val_d: Double, test_d: Double)

/** Benchmark run knobs. Defaults are sized for a single-machine run; the
  * paper protocol is splits=20, seeds=5, searchK>1 (see DESIGN.md).
  */
final case class RunConfig(
    splits: Int      = 10,
    seeds: Int       = 1,
    searchK: Int     = 1,
    parallelism: Int = 12,
    alpha: Double    = 0.05,
    models: Seq[String] = RunConfig.AllModels,
    /** Restrict to these (detect, repair) methods; None = all (Table 2). */
    methodFilter: Option[Set[(String, String)]] = None)

object RunConfig {
  val AllModels: Seq[String] = Seq(
    "adaboost", "decision_tree", "knn", "logistic_regression",
    "naive_bayes", "random_forest", "xgboost")

  private def intEnv(k: String, d: Int): Int =
    sys.env.get(k).map(_.toInt).getOrElse(d)

  /** Read knobs from CLEANML_* environment variables. */
  def fromEnv: RunConfig = RunConfig(
    splits      = intEnv("CLEANML_SPLITS", 10),
    seeds       = intEnv("CLEANML_SEEDS", 1),
    searchK     = intEnv("CLEANML_SEARCH_K", 1),
    parallelism = intEnv("CLEANML_PARALLELISM", 12))
}
