package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

import repro.core.Runner.BenchmarkRelations

/** The expected side of the grouping-sets tests: Table 15 as one
  * `GROUP BY flag` SQL query per block, each run through a temp view, and
  * the block-by-block rendering built on them. The same SQL texts run on
  * DuckDB in the oracle checks.
  */
object Table15Reference {

  def q1Sql(view: String, e: String): String =
    s"""SELECT flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY flag""".stripMargin

  def q2Sql(view: String, e: String): String =
    s"""SELECT scenario, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY scenario, flag""".stripMargin

  def q3Sql(view: String, e: String): String =
    s"""SELECT model, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY model, flag""".stripMargin

  def q41Sql(view: String, e: String): String =
    s"""SELECT detect AS detect_method, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY detect, flag""".stripMargin

  def q42Sql(view: String, e: String): String =
    s"""SELECT repair AS repair_method, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY repair, flag""".stripMargin

  def q5Sql(view: String, e: String): String =
    s"""SELECT dataset, flag, COUNT(*) AS cnt
       |FROM $view WHERE error_type = '$e'
       |GROUP BY dataset, flag""".stripMargin

  /** Run a block's SQL against a relation through a temp view. */
  def run(relation: DataFrame, sql: String, view: String): DataFrame = {
    relation.createOrReplaceTempView(view)
    relation.sparkSession.sql(sql)
  }

  /** A block query's result (0..1 group columns, `flag`, `cnt`) as group
    * key -> flag -> count; a null group value is the key "∅".
    */
  def collect(df: DataFrame): Map[Seq[String], Map[String, Long]] = {
    val cols = df.columns
    val flagIdx = cols.indexOf("flag")
    val cntIdx  = cols.indexOf("cnt")
    val groupIdx = cols.indices.filter(i => i != flagIdx && i != cntIdx)
    df.collect()
      .groupBy(r => groupIdx.map(i => Option(r.get(i)).map(_.toString).getOrElse("∅")).toSeq)
      .map { case (k, rows) =>
        k -> rows.map(r => r.getString(flagIdx) -> r.getLong(cntIdx)).toMap
      }
  }

  /** `Runner.printTable15` as one query per block, one block after another. */
  def printTable15(rel: BenchmarkRelations, error: ErrorType): Unit = {
    val e = error.name
    val multiMethod = error == ErrorType.Outliers || error == ErrorType.MissingValues
    println(s"\n===== Table 15 blocks for error type: $e =====")
    PaperNumbers.notes.getOrElse(e, Nil).foreach(n => println(s"  [paper] $n"))
    for ((rName, rel1) <- Seq(("R1", rel.r1), ("R2", rel.r2), ("R3", rel.r3))) {
      val view = s"rel_$rName"
      def show(q: String, sql: String,
               paper: Seq[String] => Option[Map[String, Int]]): Unit =
        TableFormat.printBlock(s"$q [$rName, $e]", collect(run(rel1, sql, view)), paper)

      show("Q1", q1Sql(view, e), _ => PaperNumbers.q1.get((rName, e)))
      if (error != ErrorType.MissingValues)
        show("Q2", q2Sql(view, e),
          k => PaperNumbers.q2.get((rName, e, k.headOption.getOrElse(""))))
      if (rName == "R1")
        show("Q3", q3Sql(view, e),
          k => PaperNumbers.q3.get((rName, e, k.headOption.getOrElse(""))))
      if (multiMethod && rName != "R3") {
        show("Q4.1", q41Sql(view, e), _ => None)
        show("Q4.2", q42Sql(view, e), _ => None)
      }
      show("Q5", q5Sql(view, e), _ => None)
    }
  }

  /** A relation frame: string key columns plus `flag`. */
  def frame(spark: SparkSession, keys: Seq[String], rows: Seq[Seq[String]]): DataFrame =
    spark.createDataFrame(rows.map(Row.fromSeq).asJava,
      StructType((keys :+ "flag").map(StructField(_, StringType, nullable = true))))

  /** Synthetic R1/R2/R3 frames for inconsistencies, outliers and missing
    * values, with each relation's key columns (`Relations.R1Keys` etc.)
    * and seeded random flags. One outlier row of R1 and R2 has a null
    * `detect`, so a null group value is a group of its own.
    */
  def relations(spark: SparkSession, seed: Int = 7): BenchmarkRelations = {
    val rng = new scala.util.Random(seed)
    def flag(): String = Flag.all(rng.nextInt(3))
    val methods = Map(
      "inconsistencies" -> Seq(("openrefine", "merge")),
      "outliers" -> Seq(("SD", "delete"), ("IQR", "impute_mean"), ("IF", "impute_median")),
      "missing_values" -> Seq(("empty_entry", "impute_mean_mode"), ("empty_entry", "impute_median_dummy")))
    val datasets = Map(
      "inconsistencies" -> Seq("Company", "University"),
      "outliers" -> Seq("EEG", "Credit", "Sensor"),
      "missing_values" -> Seq("Titanic", "USCensus"))
    def scenarios(e: String) = if (e == "missing_values") Seq("BD") else Seq("BD", "CD")
    val specs = for {
      e <- Seq("inconsistencies", "outliers", "missing_values")
      ds <- datasets(e)
      (detect, repair) <- methods(e)
      sc <- scenarios(e)
    } yield (ds, e, detect, repair, sc)
    val nullDetect = specs.indexWhere(_._2 == "outliers")
    def detectAt(i: Int, d: String) = if (i == nullDetect) null else d
    val r1 = for {
      ((ds, e, d, r, sc), i) <- specs.zipWithIndex
      model <- Seq("knn", "naive_bayes", "xgboost")
    } yield Seq(ds, e, detectAt(i, d), r, model, sc, flag())
    val r2 = specs.zipWithIndex.map { case ((ds, e, d, r, sc), i) =>
      Seq(ds, e, detectAt(i, d), r, sc, flag()) }
    val r3 = specs.map { case (ds, e, _, _, sc) => (ds, e, sc) }.distinct
      .map { case (ds, e, sc) => Seq(ds, e, sc, flag()) }
    BenchmarkRelations(frame(spark, Relations.R1Keys, Nil),
      frame(spark, Relations.R1Keys, r1), frame(spark, Relations.R2Keys, r2),
      frame(spark, Relations.R3Keys, r3))
  }
}
