package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{ErrorType, Runner, RunConfig, Session, Walkthrough}

/** spark-submit (or `sbt "jobs/runMain repro.jobs.Main ..."`) entry point,
  * one command per group of paper tables, plus the behaviour gate:
  *
  *   tables06to09            s1/s2/s3 worked example on one split (Tables 6–9)
  *   tables10to11            five random-search seeds for s1 and s2 (Tables 10–11)
  *   tables12to14 [splits]   s1 pairs, t-tests and BY-corrected flag (Tables 12–14; 20 splits)
  *   table15 [error|all]     Q1–Q5 blocks over R1/R2/R3 (Table 15; all error types)
  *   digest [error|all]      SHA-256 of the measurement rows and of the R1/R2/R3 rows
  *
  * Table 15 and the digests scale via CLEANML_SPLITS / CLEANML_SEEDS /
  * CLEANML_SEARCH_K / CLEANML_PARALLELISM (paper protocol: SPLITS=20,
  * SEEDS=5). The committed reference digests are at CLEANML_SPLITS=2
  * (bench/src/test/scala/repro/bench/DigestBench.scala).
  */
object Main {
  private val Usage =
    "usage: Main <tables06to09|tables10to11|tables12to14 [splits]|table15 [error|all]|digest [error|all]>"

  def main(args: Array[String]): Unit = {
    val arg = args.lift(1)
    def errors = arg.filter(_ != "all").fold(ErrorType.all)(e => Seq(ErrorType.of(e)))
    val table: SparkSession => Unit = args.headOption match {
      case Some("tables06to09") => _ => Walkthrough.tables6to9()
      case Some("tables10to11") => _ => Walkthrough.tables10to11()
      case Some("tables12to14") => _ => Walkthrough.tables12to14(arg.fold(20)(_.toInt))
      case Some("table15") => spark =>
        val cfg = RunConfig.fromEnv
        println(s"[Table15] config: $cfg")
        errors.foreach { e =>
          Runner.printTable15(Runner.run(spark, cfg, Set(e)), e)
        }
      case Some("digest") => spark =>
        val cfg = RunConfig.fromEnv
        println(s"[digest] config: $cfg")
        errors.foreach { e =>
          val t0 = System.nanoTime()
          val (meas, rels) = Digest.of(spark, cfg, e)
          println(f"[digest] ${e.name} measurements $meas relations $rels " +
            f"(${(System.nanoTime() - t0) / 1e9}%.1f s)")
        }
      case _ => sys.error(Usage)
    }
    val spark = Session.build(s"cleanml-${args(0)}")
    try table(spark) finally spark.stop()
  }
}
