package verdictbench

import java.io.{ByteArrayOutputStream, File, PrintStream, PrintWriter}
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.scheduler.verdictbench.SparkInternals

import repro.core.Measurement
import repro.core.Runner.BenchmarkRelations

/** Runs one workload and prints, as the last line of standard output, a
  * JSON object {correct, attempted, failed, metrics}.
  *
  * Usage: Main --workload <fit_grid|clean_grid> --seed <n>
  *   --seconds <s> --trace <0|1> [--references <file>] [--work-dir <dir>]
  *   [--trace-out <file>]
  *
  * Untraced (--trace 0): set-up (SparkSession start and the warm-up
  * passes), then timed passes until --seconds have elapsed;
  * reports the end-to-end metrics as medians over the timed passes.
  * Traced (--trace 1): the same set-up, then untraced, traced and untraced
  * passes; reports the per-layer metrics of the traced pass.
  */
object Main {

  final case class Opts(workload: String = "", seed: Long = 0, seconds: Double = 10,
                        trace: Boolean = false, references: Option[File] = None, workDir: File = new File("."),
                        traceOut: Option[File] = None)

  /** One verdict with its cost and the problems its output checks found. */
  final case class Pass(wallS: Double, cpuS: Double, jobs: Int, digest: String,
                        r1Flags: Map[String, Map[String, Long]], problems: Seq[String])

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case Nil => o
    case "--workload" :: v :: t    => parse(t, o.copy(workload = v))
    case "--seed" :: v :: t        => parse(t, o.copy(seed = v.toLong))
    case "--seconds" :: v :: t     => parse(t, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: t       => parse(t, o.copy(trace = v == "1"))
    case "--references" :: v :: t  => parse(t, o.copy(references = Some(new File(v))))
    case "--work-dir" :: v :: t    => parse(t, o.copy(workDir = new File(v)))
    case "--trace-out" :: v :: t   => parse(t, o.copy(traceOut = Some(new File(v))))
    case other => sys.error(s"unexpected arguments: ${other.mkString(" ")}")
  }

  /** "<workload> <sha256>" lines; '#' starts a comment. */
  def readReferences(f: File): Map[String, String] = {
    val src = scala.io.Source.fromFile(f, "UTF-8")
    try src.getLines().map(_.takeWhile(_ != '#').trim).filter(_.nonEmpty)
      .map(_.split("\\s+")).collect { case Array(w, d) => w -> d }.toMap
    finally src.close()
  }

  def startSession(threads: Int, workDir: File): SparkSession =
    SparkSession.builder
      .master(s"local[$threads]")
      .appName("verdictbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()

  /** Re-set before every pass: `Runner.measurements` changes it on the
    * shared session and does not restore it.
    */
  val ShufflePartitions = "2"

  /** Untimed passes before the timed ones: the first pass in a JVM runs
    * 1.6–2× slower while classes load and code compiles.
    */
  val Warmups = 1

  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList)
    val refs = o.references.map(readReferences).getOrElse(Map.empty)
    val w = Workload.byName(o.workload, Workload.cores, refs)
    val t0 = System.nanoTime()
    val spark = startSession(Workload.cores, o.workDir)
    Console.err.println(f"[verdictbench] session started after ${(System.nanoTime() - t0) / 1e9}%.3f s")
    try {
      val result = new Bench(spark, w, o).run(t0)
      println(result)
    } finally spark.stop()
  }

  /** One benchmark run on a started session. */
  final class Bench(spark: SparkSession, w: Workload, o: Opts) {
    private val sc = spark.sparkContext
    private val ledger = new JobLedger
    sc.addSparkListener(ledger)
    private val passes = ArrayBuffer.empty[Pass]

    /** Run `verdict`, time it, and check its outputs. */
    def pass(label: String)(verdict: => BenchmarkRelations): (Pass, JobLedger.Counts) = {
      spark.conf.set("spark.sql.shuffle.partitions", ShufflePartitions)
      SparkInternals.drainListeners(sc)
      ledger.reset()
      val id0 = SparkInternals.jobsSubmitted(sc)
      val printed = new ByteArrayOutputStream()
      val cpu0 = os.getProcessCpuTime
      val start = System.nanoTime()
      val outcome =
        try Right(Console.withOut(new PrintStream(printed, true, UTF_8))(verdict))
        catch { case NonFatal(e) => Left(e) }
      val wallS = (System.nanoTime() - start) / 1e9
      val cpuS = (os.getProcessCpuTime - cpu0) / 1e9
      val id1 = SparkInternals.jobsSubmitted(sc)
      SparkInternals.drainListeners(sc)
      val counts = ledger.snapshot()
      val p = outcome match {
        case Left(e) =>
          Pass(wallS, cpuS, id1 - id0, "", Map.empty, Seq(s"verdict threw $e"))
        case Right(rel) =>
          try {
            import spark.implicits._
            val rows: Seq[Measurement] = rel.measurements.as[Measurement].collect().toSeq
            val r1Flags = Checks.r1Flags(w, rel)
            val digest = Checks.digest(rows)
            val problems =
              counts.accountingError(id0, id1).toSeq ++ Checks.rows(w, rows) ++
              Checks.relations(w, rel) ++ Checks.q1(w, printed.toString(UTF_8), r1Flags) ++
              w.checkDigest(digest) ++
              passes.headOption.filter(_.digest != digest).map(f =>
                s"digest $digest differs from the first pass's ${f.digest}")
            rel.measurements.unpersist()
            Pass(wallS, cpuS, id1 - id0, digest, r1Flags, problems)
          } catch {
            case NonFatal(e) => Pass(wallS, cpuS, id1 - id0, "", Map.empty, Seq(s"checks threw $e"))
          }
      }
      passes += p
      Console.err.println(f"[verdictbench] ${w.name} $label: ${p.wallS}%.3f s, ${p.cpuS}%.2f cpu s, " +
        s"${p.jobs} jobs, digest ${p.digest.take(16)}" +
        (if (p.problems.isEmpty) "" else s", FAILED: ${p.problems.mkString("; ")}"))
      (p, counts)
    }

    def run(t0: Long): String = {
      (1 to Warmups).foreach(i => pass(s"warm-up $i")(w.verdict(spark)))
      val setupS = (System.nanoTime() - t0) / 1e9
      val metrics =
        if (o.trace) traced()
        else {
          val timed = ArrayBuffer.empty[Pass]
          val m0 = System.nanoTime()
          while (timed.isEmpty || (System.nanoTime() - m0) / 1e9 < o.seconds)
            timed += pass(s"pass ${timed.size + 1}")(w.verdict(spark))._1
          endToEnd(setupS, timed.toSeq)
        }
      passes.headOption.foreach(_.r1Flags.toSeq.sortBy(_._1).foreach { case (e, f) =>
        println(s"Q1 [R1, $e] flag counts: " +
          repro.core.Flag.all.map(x => s"$x ${f.getOrElse(x, 0L)}").mkString(" | "))
      })
      val failed = passes.count(_.problems.nonEmpty)
      Json.result(correct = failed == 0, attempted = passes.size, failed = failed, metrics)
    }

    private def endToEnd(setupS: Double, timed: Seq[Pass]): Seq[LayerMetrics.Metric] = {
      val (q1, wall, q3) = Stats.quartiles(timed.map(_.wallS))
      println(f"verdict_s: median $wall%.3f s, quartiles $q1%.3f..$q3%.3f s over ${timed.size} timed passes" +
        f" (${w.rows} measurement rows per verdict); setup_s $setupS%.3f s")
      Seq(
        LayerMetrics.Metric("setup_s", setupS, "s"),
        LayerMetrics.Metric("verdict_s", wall, "s"),
        LayerMetrics.Metric("measurements_per_s", w.rows / wall, "1/s"),
        LayerMetrics.Metric("spark_jobs", Stats.quartiles(timed.map(_.jobs.toDouble))._2, "count"),
        LayerMetrics.Metric("cpu_s", Stats.quartiles(timed.map(_.cpuS))._2, "s"))
    }

    /** An untraced, a traced and another untraced pass. Passes get faster
      * as compilation goes on, so the overhead is taken against the mean of
      * the untraced passes on either side.
      */
    private def traced(): Seq[LayerMetrics.Metric] = {
      val (before, _) = pass("untraced")(w.verdict(spark))
      val tracer = new Tracer(sc)
      val (t, counts) = pass("traced")(w.tracedVerdict(spark, tracer))
      val (after, _) = pass("untraced")(w.verdict(spark))
      val spans = tracer.spans
      val cover = LayerMetrics.minCellCover(spans)
      val extra = cover.filter(_ < 0.9).map(c => s"layer spans cover only ${c * 100}% of a cell").toSeq ++
        Option.when(t.digest != before.digest)("traced digest differs from the untraced one")
      if (extra.nonEmpty) passes(passes.indexOf(t)) = t.copy(problems = t.problems ++ extra)
      o.traceOut.foreach(f => writeSpans(f, spans))
      LayerMetrics.compute(spans, counts, Workload.gridModels, tracer.pool,
        t.wallS - (before.wallS + after.wallS) / 2)
    }

    private def writeSpans(f: File, spans: Seq[Span]): Unit = {
      Option(f.getParentFile).foreach(_.mkdirs())
      val out = new PrintWriter(f, "UTF-8")
      try spans.sortBy(_.startNs).foreach(s => out.println(Json.span(s)))
      finally out.close()
    }
  }
}
