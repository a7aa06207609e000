package repro.core

import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.data.{BenchDataset, Datasets}

/** Orchestrates the benchmark: runs the measurement grid (driver-parallel
  * over (dataset, error, variant, split) cells, each cell a sequence of
  * Spark jobs), derives the R1/R2/R3 relations, and prints the Table-15
  * analysis blocks.
  */
object Runner {

  final case class BenchmarkRelations(measurements: DataFrame, r1: DataFrame,
                                      r2: DataFrame, r3: DataFrame)

  private val ShufflePartitions = "spark.sql.shuffle.partitions"

  /** Run the measurement grid for the given error types/datasets. */
  def measurements(spark: SparkSession, cfg: RunConfig,
                   errors: Set[ErrorType],
                   datasets: Seq[BenchDataset] = Datasets.all): DataFrame = {
    // Tiny per-dataset frames: low shuffle parallelism is much faster.
    // The caller's value is restored on the way out.
    val callerPartitions = spark.conf.get(ShufflePartitions)
    spark.conf.set(ShufflePartitions, "2")
    val cells = Specs.cells(errors, datasets)
    val fulls = cells.map { case (ds, e, v) =>
      val df = ds.dirty(spark, e, v).cache()
      df.count()
      ((ds, e, v), df)
    }
    val pool = Executors.newFixedThreadPool(math.max(1, cfg.parallelism))
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val futures =
        for (((ds, e, v), full) <- fulls; split <- 0 until cfg.splits)
          yield Future(Experiment.runCell(ds, e, v, full, split, cfg))
      val rows = Await.result(Future.sequence(futures), Duration.Inf).flatten
      import spark.implicits._
      rows.toDF()
    } finally {
      pool.shutdown()
      fulls.foreach(_._2.unpersist(blocking = false))
      spark.conf.set(ShufflePartitions, callerPartitions)
    }
  }

  /** Full pipeline: measurements -> flagged relations. */
  def run(spark: SparkSession, cfg: RunConfig, errors: Set[ErrorType],
          datasets: Seq[BenchDataset] = Datasets.all): BenchmarkRelations = {
    val meas = measurements(spark, cfg, errors, datasets).cache()
    meas.count()
    BenchmarkRelations(meas,
      Relations.r1(meas, cfg.alpha),
      Relations.r2(meas, cfg.alpha),
      Relations.r3(meas, cfg.alpha))
  }

  /** Print the Table 15 blocks (Q1..Q5) for one error type, with the
    * paper's numbers alongside where recovered (PaperNumbers).
    */
  def printTable15(rel: BenchmarkRelations, error: ErrorType): Unit = {
    val e = error.name
    val multiMethod = error == ErrorType.Outliers || error == ErrorType.MissingValues
    println(s"\n===== Table 15 blocks for error type: $e =====")
    PaperNumbers.notes.getOrElse(e, Nil).foreach(n => println(s"  [paper] $n"))
    for ((rName, rel1) <- Seq(("R1", rel.r1), ("R2", rel.r2), ("R3", rel.r3))) {
      val view = s"rel_$rName"
      def show(q: String, sql: String,
               paper: Seq[String] => Option[Map[String, Int]]): Unit =
        TableFormat.printBlock(s"$q [$rName, $e]",
          TableFormat.collect(Queries.run(rel1, sql, view)), paper)

      show("Q1", Queries.q1Sql(view, e), _ => PaperNumbers.q1.get((rName, e)))
      if (error != ErrorType.MissingValues)
        show("Q2", Queries.q2Sql(view, e),
          k => PaperNumbers.q2.get((rName, e, k.headOption.getOrElse(""))))
      if (rName == "R1")
        show("Q3", Queries.q3Sql(view, e),
          k => PaperNumbers.q3.get((rName, e, k.headOption.getOrElse(""))))
      if (multiMethod && rName != "R3") {
        show("Q4.1", Queries.q41Sql(view, e), _ => None)
        show("Q4.2", Queries.q42Sql(view, e), _ => None)
      }
      show("Q5", Queries.q5Sql(view, e), _ => None)
    }
  }
}
