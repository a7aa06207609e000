package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit}

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.data.{BenchDataset, Datasets}

/** Orchestrates the benchmark: runs the measurement grid (driver-parallel
  * over (dataset, error, variant, split) cells, each cell the dataset's
  * driver rows plus the Spark jobs of its MLlib fits), derives the
  * R1/R2/R3 relations from the measurement rows on the calling thread, and
  * prints the Table-15 analysis blocks. The cells and the three relations'
  * queries each run concurrently, through `concurrently`.
  */
object Runner {

  final case class BenchmarkRelations(measurements: DataFrame, r1: DataFrame,
                                      r2: DataFrame, r3: DataFrame)

  /** Run `tasks` on a fixed pool of at most `threads` threads made for this
    * call, and return their results in order. The pool's threads are
    * started by the calling thread, so they inherit its Spark local
    * properties. Every task has ended, or was cancelled before it started,
    * when this returns or rethrows the first failure: no Spark job a task
    * submits outlives the call.
    */
  private def concurrently[A](threads: Int)(tasks: Seq[() => A]): Seq[A] = {
    val pool = Executors.newFixedThreadPool(math.max(1, math.min(threads, tasks.size)))
    try {
      val futures = tasks.toVector.map(t => pool.submit(new Callable[A] { def call(): A = t() }))
      try futures.map(_.get())
      catch {
        case e: ExecutionException =>
          futures.foreach(_.cancel(false))
          throw e.getCause
      }
    } finally {
      pool.shutdown()
      pool.awaitTermination(Long.MaxValue, TimeUnit.NANOSECONDS)
    }
  }

  /** The measurement rows of the grid for the given error types/datasets. */
  private def measurementRows(cfg: RunConfig, errors: Set[ErrorType],
                              datasets: Seq[BenchDataset]): Seq[Measurement] =
    concurrently(cfg.parallelism)(
      for ((ds, e, v) <- Specs.cells(errors, datasets); full = ds.dirtyRows(e, v);
           split <- 0 until cfg.splits)
        yield () => Experiment.runCell(ds, e, v, full, split, cfg)).flatten

  /** Run the measurement grid for the given error types/datasets. */
  def measurements(spark: SparkSession, cfg: RunConfig, errors: Set[ErrorType],
                   datasets: Seq[BenchDataset] = Datasets.all): DataFrame =
    spark.createDataFrame(measurementRows(cfg, errors, datasets))

  /** Full pipeline: measurements -> flagged relations. The relations come
    * from the measurement rows, and R3 from R2's pairs; every frame is made
    * of local rows, so the only Spark jobs are the cells' MLlib fits.
    */
  def run(spark: SparkSession, cfg: RunConfig, errors: Set[ErrorType],
          datasets: Seq[BenchDataset] = Datasets.all): BenchmarkRelations = {
    import Relations._
    val rows = measurementRows(cfg, errors, datasets)
    val r2 = r2Pairs(rows)
    BenchmarkRelations(spark.createDataFrame(rows),
      relation(spark, R1Keys, r1Pairs(rows), cfg.alpha),
      relation(spark, R2Keys, r2, cfg.alpha),
      relation(spark, R3Keys, r3Pairs(r2), cfg.alpha))
  }

  /** Print the Table 15 blocks (Q1..Q5) for one error type, with the
    * paper's numbers alongside where recovered (PaperNumbers). The three
    * relations' queries run together; the blocks print on the calling
    * thread, R1's first.
    */
  def printTable15(rel: BenchmarkRelations, error: ErrorType): Unit = {
    val e = error.name
    println(s"\n===== Table 15 blocks for error type: $e =====")
    PaperNumbers.notes.getOrElse(e, Nil).foreach(n => println(s"  [paper] $n"))
    val relations = Seq(("R1", rel.r1), ("R2", rel.r2), ("R3", rel.r3))
    val results = concurrently(relations.size)(relations.map { case (rName, df) =>
      () => Queries.table15(df, rName, error)
    })
    for (((rName, _), blocks) <- relations.zip(results); (block, counts) <- blocks) {
      val paper: Seq[String] => Option[Map[String, Int]] = block.name match {
        case "Q1" => _ => PaperNumbers.q1.get((rName, e))
        case "Q2" => k => PaperNumbers.q2.get((rName, e, k.headOption.getOrElse("")))
        case "Q3" => k => PaperNumbers.q3.get((rName, e, k.headOption.getOrElse("")))
        case _    => _ => None
      }
      TableFormat.printBlock(s"${block.name} [$rName, $e]", counts, paper)
    }
  }
}
