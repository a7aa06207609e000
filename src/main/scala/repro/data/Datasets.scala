package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.core.ErrorType
import repro.core.ErrorType._
import repro.data.Gen.{MRow, Rng}

/** A synthetic analog of one CleanML dataset: a deterministic clean
  * generator plus per-error-type injection (mechanisms per DESIGN.md §5).
  */
trait BenchDataset {
  def spec: DataSpec

  /** Generate the clean rows (rid, features, label, label_gt). */
  protected def genClean(rng: Rng): IndexedSeq[MRow]

  /** Inject `error` into clean rows; `variant` only used for mislabels. */
  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow]

  /** Dataset with exactly one error type injected, as the paper evaluates
    * each error type separately: rows of `spec.schema`. Deterministic in
    * (dataset, error, variant, seed).
    */
  final def dirtyRows(error: ErrorType, variant: String = "", seed: Long = 0L): Seq[Row] = {
    require(spec.errors.contains(error),
      s"${spec.name} has no ${error.name} (paper Table 3)")
    val rows = genClean(new Rng(Gen.seedFor(spec.name, seed)))
    val injected = inject(rows, error, variant,
      new Rng(Gen.seedFor(s"${spec.name}:${error.name}:$variant", seed + 1)))
    Gen.rows(spec, injected)
  }

  /** `dirtyRows` as a one-partition frame. */
  final def dirty(spark: SparkSession, error: ErrorType, variant: String = "",
                  seed: Long = 0L): DataFrame =
    Rows.frame(spark, spec.schema, dirtyRows(error, variant, seed))

  /** The clean dataset (no injection) — used by tests. */
  final def clean(spark: SparkSession, seed: Long = 0L): DataFrame =
    Rows.frame(spark, spec.schema, Gen.rows(spec, genClean(new Rng(Gen.seedFor(spec.name, seed)))))

  /** Relation-level dataset name: mislabel variants become own datasets. */
  final def relName(error: ErrorType, variant: String): String =
    if (error == Mislabels) s"${spec.name}_$variant" else spec.name

  protected final def finish(r: MRow, rid: Long, score: Double, rng: Rng): MRow = {
    r("rid") = rid
    val l = rng.label(score)
    r("label") = l
    r("label_gt") = l
    r
  }
}

/** Registry of the 13 dataset analogs (paper §3.2, Table 3). */
object Datasets {
  val all: Seq[BenchDataset] = Seq(
    Airbnb, Citation, Company, Credit, EEG, KDD, Marketing,
    Movie, Restaurant, Sensor, Titanic, University, USCensus)

  def byName(name: String): BenchDataset =
    all.find(_.spec.name == name).getOrElse(sys.error(s"unknown dataset $name"))

  /** Datasets carrying a given error type. */
  def withError(e: ErrorType): Seq[BenchDataset] = all.filter(_.spec.errors.contains(e))
}

/** Airbnb: weak-signal listings; missing values, corruption outliers on
  * price/review_count, 10% exact duplicates keyed by listing id.
  */
object Airbnb extends BenchDataset {
  val spec = DataSpec(
    name = "Airbnb", rows = 1000,
    numeric = Seq("price", "review_count", "bedrooms", "min_stay", "dist_center"),
    categorical = Seq("city", "room_type"),
    errors = Set(MissingValues, Outliers, Duplicates),
    keyCol = Some("listing_id"),
    outlierCols = Seq("price", "review_count"))

  private val cities = Seq("nyc", "la", "chicago", "miami", "austin", "seattle", "denver", "boston")
  private val roomTypes = Seq("entire", "private", "shared")

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val bedrooms = rng.int(1, 5).toDouble
      val price    = math.round(rng.lognormal(4.4, 0.45) * math.sqrt(bedrooms)).toDouble
      val reviews  = rng.int(0, 300).toDouble
      val room     = rng.pick(roomTypes)
      r("price") = price; r("review_count") = reviews; r("bedrooms") = bedrooms
      r("min_stay") = rng.int(1, 7).toDouble
      r("dist_center") = math.round(rng.uniform(0, 25) * 10) / 10.0
      r("city") = rng.pick(cities); r("room_type") = room
      r("listing_id") = f"L$i%05d"
      val roomEff = room match { case "entire" => 0.4; case "private" => 0.0; case _ => -0.4 }
      val score = 1.0 * (reviews - 150) / 87.0 -
        0.8 * (math.log(price / math.sqrt(bedrooms)) - 4.4) / 0.45 +
        0.3 * (bedrooms - 3) / 1.4 + roomEff + rng.gaussian(0, 1.2)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case MissingValues =>
      // MNAR: unrated (label 0) listings rarely report review counts, so
      // deletion skews the training class prior while imputation keeps it.
      rows.foreach { r =>
        val unrated = r("label") == 0.0
        if (rng.bern(if (unrated) 0.35 else 0.08)) r("review_count") = null
      }
      Inject.missingCells(rows, Seq("bedrooms"), 0.08, rng)
      Inject.missingCells(rows, Seq("room_type"), 0.08, rng)
    case Outliers =>
      Inject.corruptionOutliers(rows, Seq("price"), 0.03, 12.0, rng)
      Inject.corruptionOutliers(rows, Seq("review_count"), 0.02, 10.0, rng)
    case Duplicates =>
      Inject.duplicates(rows, spec.numeric, rate = 0.10, jitterFrac = 0.0,
        biasClass = None, biasWeight = 1.0, rng = rng)
    case e => sys.error(s"Airbnb: $e")
  }
}

/** Citation: text classification (CS vs bio titles) with 10% exact
  * duplicates keyed by normalized title; exercises the tf-idf path.
  */
object Citation extends BenchDataset {
  val spec = DataSpec(
    name = "Citation", rows = 700,
    numeric = Seq("year"),
    categorical = Nil,
    text = Seq("title"),
    errors = Set(Duplicates),
    keyCol = Some("key"))

  private val cs = Seq("database", "query", "learning", "neural", "network",
    "optimization", "distributed", "cache", "compiler", "algorithm", "graph",
    "index", "transaction", "parallel", "hashing")
  private val bio = Seq("protein", "cell", "clinical", "gene", "patient",
    "therapy", "molecular", "tumor", "enzyme", "cardiac", "neuron", "vaccine",
    "genome", "plasma", "cortex")
  private val common = Seq("analysis", "study", "model", "system",
    "evaluation", "approach", "novel", "robust", "framework", "method")

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val isCs  = rng.bern(0.5)
      val vocab = if (isCs) cs else bio
      val nCls  = rng.int(3, 5)
      val nCom  = rng.int(1, 2)
      val words = (0 until nCls).map(_ => rng.pick(vocab)) ++
        (0 until nCom).map(_ => rng.pick(common))
      val title = rng.r.shuffle(words.toList).mkString(" ")
      r("title") = title
      r("year")  = rng.int(1990, 2020).toDouble
      r("key")   = title.toLowerCase
      r("rid") = i.toLong
      val l = if (isCs) 1.0 else 0.0
      r("label") = l; r("label_gt") = l
      r
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case Duplicates =>
      Inject.duplicates(rows, spec.numeric, rate = 0.10, jitterFrac = 0.0,
        biasClass = None, biasWeight = 1.0, rng = rng)
    case e => sys.error(s"Citation: $e")
  }
}

/** Shared helper for inconsistency variant maps: case/punctuation/token-order
  * mutations of multi-token canonical values, all fingerprint-collapsible.
  */
private[data] object Variants {
  def of(canonical: String, n: Int): Seq[String] = {
    val toks = canonical.split(" ").toSeq
    val base = Seq(
      toks.map(_.capitalize).mkString(" "),
      canonical.toUpperCase,
      toks.reverse.mkString(", "),
      toks.mkString("  ") + ".",
      toks.reverse.map(_.capitalize).mkString(" "),
      toks.mkString("-"),
      toks.map(_.capitalize).mkString("  ") + " ",
      toks.reverse.mkString(" / "),
      "(" + canonical + ")",
      toks.mkString(", ").toUpperCase)
    base.distinct.filterNot(_ == canonical).take(n)
  }
}

/** Company: inconsistent country representations (30% of cells), country
  * moderately predictive — mostly insignificant after merging.
  */
object Company extends BenchDataset {
  val spec = DataSpec(
    name = "Company", rows = 800,
    numeric = Seq("revenue", "employees"),
    categorical = Seq("country", "sector"),
    errors = Set(Inconsistencies),
    inconsCol = Some("country"))

  private val countries = Seq("united states", "great britain", "new zealand",
    "south africa", "costa rica", "hong kong")
  private val countryEff = Map(
    "united states" -> 0.6, "great britain" -> 0.3, "new zealand" -> 0.0,
    "south africa" -> -0.2, "costa rica" -> -0.4, "hong kong" -> -0.6)
  private val sectors = Seq("tech", "retail", "finance", "energy", "health")
  private[data] val variantMap: Map[String, Seq[String]] =
    countries.map(c => c -> Variants.of(c, 3)).toMap

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val country = rng.pick(countries)
      val revenue = rng.lognormal(10.0, 1.0)
      r("revenue") = math.round(revenue).toDouble
      r("employees") = rng.int(5, 5000).toDouble
      r("country") = country; r("sector") = rng.pick(sectors)
      val score = countryEff(country) + 0.6 * (math.log(revenue) - 10.0) + rng.gaussian(0, 1.0)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case Inconsistencies => Inject.inconsistencies(rows, "country", variantMap, 0.30, rng)
    case e => sys.error(s"Company: $e")
  }
}

/** Credit: class-imbalanced (~7% minority, F1 metric). The heavy lognormal
  * tails of debt_ratio/num_late ARE the signal — outlier "cleaning" removes
  * genuine predictive values (the paper's negative-impact mechanism);
  * SD(3σ) flags far fewer cells than IQR/IF on lognormal data.
  */
object Credit extends BenchDataset {
  val spec = DataSpec(
    name = "Credit", rows = 1500,
    numeric = Seq("monthly_income", "debt_ratio", "num_late", "age", "num_dependents"),
    categorical = Nil,
    metric = "f1", imbalanced = true,
    errors = Set(MissingValues, Outliers),
    outlierCols = Seq("monthly_income", "debt_ratio", "num_late"))

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val income  = rng.lognormal(8.0, 0.7)
      val debt    = rng.lognormal(-1.0, 0.9)
      val numLate = math.floor(rng.lognormal(0.2, 1.0)).min(20.0)
      val age     = rng.int(21, 75).toDouble
      r("monthly_income") = math.round(income).toDouble
      r("debt_ratio") = math.round(debt * 1000) / 1000.0
      r("num_late") = numLate
      r("age") = age
      r("num_dependents") = rng.int(0, 5).toDouble
      val score = 2.0 * (math.log(debt) + 1.0) / 0.9 + 1.2 * (numLate / 4.0) -
        0.8 * (math.log(income) - 8.0) / 0.7 - 4.6 + rng.gaussian(0, 0.8)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case Outliers => rows // heavy tails are genuine data: nothing to inject
    case MissingValues =>
      // MNAR: distressed clients tend not to report income, so deletion
      // strips the already-rare minority class and F1 collapses.
      rows.foreach { r =>
        val distressed = r("label") == 1.0
        if (rng.bern(if (distressed) 0.45 else 0.12)) r("monthly_income") = null
      }
      Inject.missingCells(rows, Seq("num_dependents"), 0.10, rng)
    case e => sys.error(s"Credit: $e")
  }
}

/** EEG: strong-signal numeric data; 4% of cells in six channels carry large
  * scale-corruption outliers (cleaning restores accuracy, distance-based
  * KNN benefits most); also a mislabel-injection dataset.
  */
object EEG extends BenchDataset {
  val spec = DataSpec(
    name = "EEG", rows = 1200,
    numeric = (1 to 10).map(i => s"f$i"),
    categorical = Nil,
    errors = Set(Outliers, Mislabels),
    outlierCols = (1 to 6).map(i => s"f$i"))

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val f = (1 to 10).map(_ => rng.gaussian()).toArray
      (1 to 10).foreach(j => r(s"f$j") = math.round(f(j - 1) * 1000) / 1000.0)
      val score = 1.4 * f(0) + 1.4 * f(1) + 1.0 * f(2) - 1.0 * f(3) + 0.7 * f(4) +
        rng.gaussian(0, 0.8)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case Outliers  => Inject.corruptionOutliers(rows, spec.outlierCols, 0.04, 18.0, rng)
    case Mislabels => Inject.mislabels(rows, variant, rng)
    case e => sys.error(s"EEG: $e")
  }
}

/** KDD: class-imbalanced (~11%, F1). Mixed outlier mechanism: cost1/cost2
  * carry scale-corruption (cleaning helps) while donation_total has a
  * genuine predictive lognormal tail (cleaning hurts) — the paper's
  * "mixed P/N" dataset. Also missing values and mislabels.
  */
object KDD extends BenchDataset {
  val spec = DataSpec(
    name = "KDD", rows = 1500,
    numeric = Seq("donation_total", "cost1", "cost2", "students", "n_projects", "teacher_exp"),
    categorical = Nil,
    metric = "f1", imbalanced = true,
    errors = Set(MissingValues, Outliers, Mislabels),
    outlierCols = Seq("donation_total", "cost1", "cost2", "students"))

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val donation = rng.lognormal(5.0, 1.0)
      val cost1    = rng.gaussian(50, 15)
      val cost2    = rng.gaussian(50, 15)
      val students = math.floor(rng.lognormal(3.0, 0.8)).max(1.0)
      val nProj    = rng.int(1, 30).toDouble
      val exp      = rng.uniform(0, 20)
      r("donation_total") = math.round(donation).toDouble
      r("cost1") = math.round(cost1 * 10) / 10.0
      r("cost2") = math.round(cost2 * 10) / 10.0
      r("students") = students
      r("n_projects") = nProj
      r("teacher_exp") = math.round(exp * 10) / 10.0
      val score = 1.6 * (math.log(donation) - 5.0) + 0.8 * (cost1 - 50) / 15.0 +
        0.6 * (cost2 - 50) / 15.0 + 0.4 * (exp - 10) / 5.8 + 0.3 * (nProj - 15.5) / 8.7 -
        3.4 + rng.gaussian(0, 0.8)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case Outliers =>
      Inject.corruptionOutliers(rows, Seq("cost1", "cost2"), 0.04, 15.0, rng)
    case MissingValues =>
      // MNAR: exciting (minority) projects have complete records; the rest
      // often miss teacher experience — deletion skews the class prior.
      rows.foreach { r =>
        val exciting = r("label") == 1.0
        if (rng.bern(if (exciting) 0.05 else 0.40)) r("teacher_exp") = null
      }
      Inject.missingCells(rows, Seq("n_projects"), 0.15, rng)
    case Mislabels => Inject.mislabels(rows, variant, rng)
    case e => sys.error(s"KDD: $e")
  }
}

/** Marketing: small demographic survey with MCAR missing values on the two
  * most predictive attributes — deletion costs sample size.
  */
object Marketing extends BenchDataset {
  val spec = DataSpec(
    name = "Marketing", rows = 900,
    numeric = Seq("education", "household", "age"),
    categorical = Seq("sex", "homeowner"),
    errors = Set(MissingValues))

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val edu = rng.int(1, 6).toDouble
      val age = rng.int(18, 80).toDouble
      val hh  = rng.int(1, 8).toDouble
      val owner = rng.bern(0.6)
      r("education") = edu; r("household") = hh; r("age") = age
      r("sex") = if (rng.bern(0.5)) "m" else "f"
      r("homeowner") = if (owner) "yes" else "no"
      val score = -1.2 * (edu - 3.5) / 1.7 - 0.5 * (age - 49) / 18.0 -
        (if (owner) 0.4 else -0.4) + 0.3 * (hh - 4.5) / 2.3 + rng.gaussian(0, 1.0)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case MissingValues =>
      // MNAR: low-income households (label 1) skip the education question,
      // so deletion skews the training class prior.
      rows.foreach { r =>
        val low = r("label") == 1.0
        if (rng.bern(if (low) 0.40 else 0.08)) r("education") = null
      }
      Inject.missingCells(rows, Seq("household"), 0.12, rng)
    case e => sys.error(s"Marketing: $e")
  }
}

/** Movie: genre classification where language dominates the signal. 48% of
  * language cells are variant spellings (merging consolidates fragmented
  * one-hot columns → positive impact); 40% duplicates are jittered copies
  * concentrated on the minority class (dedup removes useful samples → the
  * paper's negative BD flags).
  */
object Movie extends BenchDataset {
  val spec = DataSpec(
    name = "Movie", rows = 1300,
    numeric = Seq("duration", "score_imdb"),
    categorical = Seq("language", "country"),
    errors = Set(Duplicates, Inconsistencies),
    keyCol = Some("title_key"),
    inconsCol = Some("language"))

  private val languages = Seq("english language", "french language",
    "spanish language", "german language")
  private val langEff = Map(
    "english language" -> 1.4, "french language" -> 0.5,
    "spanish language" -> -0.5, "german language" -> -1.4)
  private val countriesM = Seq("usa", "france", "spain", "germany", "uk")
  private[data] val variantMap: Map[String, Seq[String]] =
    languages.map(l => l -> Variants.of(l, 8)).toMap

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val lang = rng.pick(languages)
      val dur  = rng.gaussian(100, 20)
      r("duration") = math.round(dur).toDouble
      r("score_imdb") = math.round(rng.gaussian(6.5, 1.0) * 10) / 10.0
      r("language") = lang; r("country") = rng.pick(countriesM)
      r("title_key") = f"M$i%05d"
      val score = langEff(lang) + 0.5 * (dur - 100) / 20.0 - 0.6 + rng.gaussian(0, 0.7)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case Inconsistencies => Inject.inconsistencies(rows, "language", variantMap, 0.48, rng)
    case Duplicates =>
      // Sloppy first entries: the kept-first record of a duplicated entity
      // often holds a wrong label while re-entries are correct, so
      // keep-first dedup deletes the correcting copies (negative impact).
      Inject.duplicates(rows, spec.numeric, rate = 0.45, jitterFrac = 0.08,
        biasClass = Some(1.0), biasWeight = 4.0, rng = rng,
        sourceLabelNoise = 0.60)
    case e => sys.error(s"Movie: $e")
  }
}

/** Restaurant: price-range classification; mild inconsistency on cuisine
  * category (mostly insignificant) and 15% minority-biased jittered
  * duplicates (mild negative/insignificant in BD).
  */
object Restaurant extends BenchDataset {
  val spec = DataSpec(
    name = "Restaurant", rows = 1200,
    numeric = Seq("rating", "review_n"),
    categorical = Seq("category", "city"),
    errors = Set(Duplicates, Inconsistencies),
    keyCol = Some("rest_key"),
    inconsCol = Some("category"))

  private val cats = Seq("fast food", "fine dining", "coffee shop",
    "food truck", "family diner", "steak house")
  private val catEff = Map(
    "fast food" -> 1.0, "fine dining" -> -1.2, "coffee shop" -> 0.6,
    "food truck" -> 1.2, "family diner" -> 0.2, "steak house" -> -1.0)
  private val citiesR = Seq("nyc", "la", "chicago", "houston", "phoenix",
    "philly", "dallas", "austin")
  private[data] val variantMap: Map[String, Seq[String]] =
    cats.map(c => c -> Variants.of(c, 3)).toMap

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val cat = rng.pick(cats)
      val rating = rng.gaussian(3.8, 0.6)
      r("rating") = math.round(rating * 10) / 10.0
      r("review_n") = math.floor(rng.lognormal(4.0, 1.0)).max(1.0)
      r("category") = cat; r("city") = rng.pick(citiesR)
      r("rest_key") = f"R$i%05d"
      val score = catEff(cat) - 0.6 * (rating - 3.8) / 0.6 - 0.3 + rng.gaussian(0, 1.0)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case Inconsistencies => Inject.inconsistencies(rows, "category", variantMap, 0.25, rng)
    case Duplicates =>
      // Noisy re-entries: 30% of copies carry a wrong label, so dedup
      // removes label noise (positive impact).
      Inject.duplicates(rows, spec.numeric, rate = 0.20, jitterFrac = 0.05,
        biasClass = Some(1.0), biasWeight = 3.0, rng = rng,
        copyLabelNoise = 0.60)
    case e => sys.error(s"Restaurant: $e")
  }
}

/** Sensor: which-sensor classification with well-separated class means;
  * 5% of temperature/light cells carry strong scale corruption —
  * cleaning outliers is clearly positive here (paper: Sensor mostly P).
  */
object Sensor extends BenchDataset {
  val spec = DataSpec(
    name = "Sensor", rows = 1200,
    numeric = Seq("temperature", "humidity", "light", "voltage"),
    categorical = Nil,
    errors = Set(Outliers),
    outlierCols = Seq("temperature", "light"))

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val isS1 = rng.bern(0.5)
      val temp  = if (isS1) rng.gaussian(22.0, 1.5) else rng.gaussian(24.5, 1.5)
      val light = if (isS1) rng.gaussian(400, 80) else rng.gaussian(480, 80)
      r("temperature") = math.round(temp * 100) / 100.0
      r("humidity") = math.round(rng.gaussian(40, 5) * 10) / 10.0
      r("light") = math.round(light).toDouble
      r("voltage") = math.round(rng.gaussian(2.7, 0.1) * 1000) / 1000.0
      r("rid") = i.toLong
      val l = if (isS1) 1.0 else 0.0
      r("label") = l; r("label_gt") = l
      r
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case Outliers => Inject.corruptionOutliers(rows, spec.outlierCols, 0.05, 8.0, rng)
    case e => sys.error(s"Sensor: $e")
  }
}

/** Titanic: 891 rows like the original; ~20% of ages missing — on this
  * small a dataset, deletion costs enough sample size that imputation wins.
  */
object Titanic extends BenchDataset {
  val spec = DataSpec(
    name = "Titanic", rows = 891,
    numeric = Seq("age", "fare", "sibsp", "parch"),
    categorical = Seq("sex", "pclass", "embarked"),
    errors = Set(MissingValues))

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val female = rng.bern(0.35)
      val pclass = rng.pick(Seq("1", "2", "3"))
      val age    = math.max(1.0, math.min(80.0, rng.gaussian(30, 14)))
      val fare   = rng.lognormal(3.0, 1.0)
      r("age") = math.round(age).toDouble
      r("fare") = math.round(fare * 100) / 100.0
      r("sibsp") = rng.int(0, 4).toDouble
      r("parch") = rng.int(0, 3).toDouble
      r("sex") = if (female) "female" else "male"
      r("pclass") = pclass
      r("embarked") = rng.pick(Seq("s", "c", "q"))
      val classEff = pclass match { case "1" => 1.0; case "2" => 0.4; case _ => 0.0 }
      val score = 2.4 * (if (female) 1.0 else 0.0) + classEff -
        0.03 * (age - 30) + 0.2 * (math.log(fare) - 3.0) - 1.6 + rng.gaussian(0, 0.8)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case MissingValues =>
      // MNAR like the real Titanic: ages of victims (mostly third class)
      // were never recorded — deletion strips a survival-relevant stratum
      // and skews the class prior of a small dataset.
      rows.foreach { r =>
        val victim = r("label") == 0.0 && r("pclass") == "3"
        if (rng.bern(if (victim) 0.45 else 0.10)) r("age") = null
      }
      Inject.missingCells(rows, Seq("fare"), 0.05, rng)
      Inject.missingCells(rows, Seq("embarked"), 0.03, rng)
    case e => sys.error(s"Titanic: $e")
  }
}

/** University: inconsistent state spellings (35%) on a weakly predictive
  * attribute — cleaning is mostly insignificant.
  */
object University extends BenchDataset {
  val spec = DataSpec(
    name = "University", rows = 400,
    numeric = Seq("sat", "tuition"),
    categorical = Seq("state", "control"),
    errors = Set(Inconsistencies),
    inconsCol = Some("state"))

  private val states = Seq("new york", "north carolina", "new jersey",
    "south dakota", "rhode island", "new mexico", "west virginia", "north dakota")
  private[data] val variantMap: Map[String, Seq[String]] =
    states.map(s => s -> Variants.of(s, 3)).toMap

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val priv = rng.bern(0.45)
      val sat  = rng.gaussian(1100, 150)
      val tuition = rng.lognormal(9.2, 0.5)
      val state = rng.pick(states)
      r("sat") = math.round(sat).toDouble
      r("tuition") = math.round(tuition).toDouble
      r("state") = state; r("control") = if (priv) "private" else "public"
      val stateEff = if (states.indexOf(state) < 4) 0.3 else -0.3
      val score = 1.5 * (if (priv) 1.0 else -1.0) + 0.8 * (math.log(tuition) - 9.2) / 0.5 +
        stateEff + rng.gaussian(0, 0.9)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case Inconsistencies => Inject.inconsistencies(rows, "state", variantMap, 0.35, rng)
    case e => sys.error(s"University: $e")
  }
}

/** USCensus: income classification. Its missing values are coupled with
  * label noise (dirty rows are doubly dirty), so deletion removes the noisy
  * labels while imputation keeps them — the negative-impact mechanism the
  * paper attributes to USCensus. Also a mislabel-injection dataset.
  */
object USCensus extends BenchDataset {
  val spec = DataSpec(
    name = "USCensus", rows = 1200,
    numeric = Seq("education_num", "hours", "age", "capital_gain"),
    categorical = Seq("workclass", "sex"),
    errors = Set(MissingValues, Mislabels))

  private val workclasses = Seq("private", "gov", "self", "nonprofit", "other")

  protected def genClean(rng: Rng): IndexedSeq[MRow] =
    (0 until spec.rows).map { i =>
      val r = Gen.newRow()
      val edu   = rng.int(1, 16).toDouble
      val hours = rng.int(20, 60).toDouble
      val male  = rng.bern(0.5)
      val gain  = if (rng.bern(0.15)) math.round(rng.lognormal(8.0, 1.0)).toDouble else 0.0
      r("education_num") = edu; r("hours") = hours
      r("age") = rng.int(17, 80).toDouble
      r("capital_gain") = gain
      r("workclass") = rng.pick(workclasses)
      r("sex") = if (male) "m" else "f"
      val score = 1.3 * (edu - 8.5) / 4.6 + 0.8 * (hours - 40) / 11.5 +
        0.4 * (if (male) 1.0 else -1.0) + 1.5 * (if (gain > 0) 1.0 else 0.0) -
        0.8 + rng.gaussian(0, 0.9)
      finish(r, i.toLong, score, rng)
    }

  protected def inject(rows: IndexedSeq[MRow], error: ErrorType,
                       variant: String, rng: Rng): IndexedSeq[MRow] = error match {
    case MissingValues =>
      Inject.missingRowsWithLabelNoise(rows, Seq("workclass", "hours"),
        rowRate = 0.20, flipProb = 0.50, rng = rng)
    case Mislabels => Inject.mislabels(rows, variant, rng)
    case e => sys.error(s"USCensus: $e")
  }
}
