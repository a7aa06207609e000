package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

import repro.{Oracle, SparkSpec}
import repro.core.Table15Reference._

/** Each Table 15 block, as split from the one grouping-sets query, is
  * checked against DuckDB running the block's own `GROUP BY flag` SQL.
  */
class QueriesSpec extends SparkSpec {

  import spark.implicits._

  /** A small synthetic R1 relation with known flag distributions, plus a
    * few duplicates rows that the outlier queries must filter out.
    */
  private lazy val relation: DataFrame = {
    val rng = new scala.util.Random(4)
    val rows = for {
      ds <- Seq("EEG", "Sensor", "Credit")
      detect <- Seq("SD", "IQR", "IF")
      repair <- Seq("delete", "impute_mean")
      model <- Seq("knn", "xgboost")
      scen <- Seq("BD", "CD")
    } yield {
      val flag = if (ds == "Credit" && detect != "SD") "N"
                 else if (ds == "EEG") "P" else Seq("P", "S")(rng.nextInt(2))
      (ds, "outliers", detect, repair, model, scen, flag)
    }
    val dups = for (ds <- Seq("Movie", "Restaurant"); model <- Seq("knn", "xgboost"))
      yield (ds, "duplicates", "key_collision", "delete", model, "BD", "S")
    (rows ++ dups).toDF("dataset", "error_type", "detect", "repair", "model", "scenario", "flag")
      .cache()
  }

  /** One block of the grouping-sets query as a frame with columns
    * `keyCols`, `flag`, `cnt`, named as in the block's SQL.
    */
  private def block(name: String, keyCols: String*)(
      rel: DataFrame = relation, relName: String = "R1",
      error: ErrorType = ErrorType.Outliers): DataFrame = {
    val counts = Queries.table15(rel, relName, error)
      .collectFirst { case (b, c) if b.name == name => c }
      .getOrElse(fail(s"no $name block for $relName, ${error.name}"))
    val rows = for ((k, byFlag) <- counts.toSeq; (f, n) <- byFlag) yield Row.fromSeq(k ++ Seq(f, n))
    spark.createDataFrame(rows.asJava, StructType(
      keyCols.map(StructField(_, StringType)) ++
        Seq(StructField("flag", StringType), StructField("cnt", LongType))))
  }

  test("Q1 matches DuckDB (oracle-checked)") {
    Oracle.assertEquivalent(block("Q1")(), q1Sql("r", "outliers"), "r" -> relation)
  }

  test("Q2 matches DuckDB (oracle-checked)") {
    Oracle.assertEquivalent(block("Q2", "scenario")(), q2Sql("r", "outliers"), "r" -> relation)
  }

  test("Q3 matches DuckDB (oracle-checked)") {
    Oracle.assertEquivalent(block("Q3", "model")(), q3Sql("r", "outliers"), "r" -> relation)
  }

  test("Q4.1 and Q4.2 match DuckDB (oracle-checked)") {
    Oracle.assertEquivalent(block("Q4.1", "detect_method")(), q41Sql("r", "outliers"),
      "r" -> relation)
    Oracle.assertEquivalent(block("Q4.2", "repair_method")(), q42Sql("r", "outliers"),
      "r" -> relation)
  }

  test("Q5 matches DuckDB (oracle-checked)") {
    Oracle.assertEquivalent(block("Q5", "dataset")(), q5Sql("r", "outliers"), "r" -> relation)
  }

  test("queries filter by error type") {
    val dups = Queries.table15(relation, "R1", ErrorType.Duplicates)
    assert(dups.head == (Queries.Block("Q1", None) -> Map(Seq() -> Map("S" -> 4L))))
    Oracle.assertEquivalent(block("Q5", "dataset")(error = ErrorType.Duplicates),
      q5Sql("r", "duplicates"), "r" -> relation)
    val none = Queries.table15(relation, "R1", ErrorType.Mislabels)
    assert(none.map(_._1.name) == Seq("Q1", "Q2", "Q3", "Q5"))
    assert(none.forall(_._2.isEmpty))
  }

  test("TableFormat collects grouped query output") {
    val m = Queries.table15(relation, "R1", ErrorType.Outliers)
      .collectFirst { case (b, c) if b.name == "Q5" => c }.get
    assert(m.keySet.map(_.head) == Set("EEG", "Sensor", "Credit"))
    assert(m(Seq("EEG")).values.sum == 24) // 3 detect × 2 repair × 2 model × 2 scen
    assert(m(Seq("EEG")) == Map("P" -> 24L))
    assert(m == collect(Table15Reference.run(relation, q5Sql("r", "outliers"), "r")))
  }

  test("TableFormat.dist renders percentages and counts") {
    val s = TableFormat.dist(Map("P" -> 3L, "S" -> 1L))
    assert(s.contains("P  75.0% (3)"))
    assert(s.contains("N   0.0% (0)"))
  }

  test("the grouping-sets query equals DuckDB's GROUPING SETS over R1, R2 and R3") {
    val rel = Table15Reference.relations(spark)
    for {
      (rName, df) <- Seq(("R1", rel.r1), ("R2", rel.r2), ("R3", rel.r3))
      error <- Seq(ErrorType.Inconsistencies, ErrorType.Outliers, ErrorType.MissingValues)
    } {
      val blocks = Queries.blocks(rName, error)
      val by = blocks.flatMap(_.by).distinct
      val sets = blocks.map(b => (b.by.toSeq :+ "flag").mkString("(", ", ", ")"))
      val duck =
        s"""SELECT ${(by :+ "flag").mkString(", ")}, COUNT(*) AS cnt,
           |  ${by.map(c => s"GROUPING($c) AS grouping_$c").mkString(", ")}
           |FROM r WHERE error_type = '${error.name}'
           |GROUP BY GROUPING SETS (${sets.mkString(", ")})""".stripMargin
      withClue(s"$rName, ${error.name}: ") {
        Oracle.assertEquivalent(Queries.groupingSets(df, blocks, error), duck, "r" -> df)
      }
    }
  }
}
