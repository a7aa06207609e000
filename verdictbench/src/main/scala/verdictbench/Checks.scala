package verdictbench

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import repro.core.Measurement
import repro.core.Runner.BenchmarkRelations

/** Output checks run on every pass. Each returns the problems it found. */
object Checks {

  /** SHA-256 of the measurement rows, one tab-separated line each, sorted. */
  def digest(rows: Seq[Measurement]): String = {
    val text = rows.map(_.productIterator.mkString("\t")).sorted.mkString("\n")
    MessageDigest.getInstance("SHA-256").digest(text.getBytes(UTF_8)).map("%02x".format(_)).mkString
  }

  def rows(w: Workload, rows: Seq[Measurement]): Seq[String] = {
    val bad = rows.filterNot(m =>
      Seq(m.val_b, m.test_b, m.val_d, m.test_d).forall(x => x >= 0.0 && x <= 1.0))
    Seq(
      Option.when(rows.size != w.rows)(s"${rows.size} measurement rows, expected ${w.rows}"),
      Option.when(bad.nonEmpty)(s"${bad.size} rows with a metric outside [0, 1] or not finite"),
    ).flatten
  }

  def relations(w: Workload, rel: BenchmarkRelations): Seq[String] = {
    Seq(("R1", rel.r1, w.r1Specs.size), ("R2", rel.r2, w.r2Specs.size),
        ("R3", rel.r3, w.r3Specs.size)).flatMap { case (n, df, want) =>
      val got = df.count()
      Option.when(got != want)(s"$n has $got rows, Specs gives $want")
    }
  }

  /** R1 flag counts per error type, from the relation itself. */
  def r1Flags(w: Workload, rel: BenchmarkRelations): Map[String, Map[String, Long]] = {
    val got = rel.r1.groupBy("error_type", "flag").count().collect()
      .map(r => (r.getString(0), r.getString(1), r.getLong(2)))
    w.errors.map(e => e.name -> got.collect { case (`e`.name, f, n) => f -> n }.toMap).toMap
  }

  private val FlagCount = """([PSN])\s+[0-9.]+% \((\d+)\)""".r

  /** The Q1 [R1, e] counts as printed by `Runner.printTable15`. */
  def printedQ1(printed: String, error: String): Option[Map[String, Long]] = {
    val lines = printed.linesIterator.toVector
    val at = lines.indexOf(s"== Q1 [R1, $error]")
    Option.when(at >= 0 && at + 1 < lines.size) {
      FlagCount.findAllMatchIn(lines(at + 1)).map(m => m.group(1) -> m.group(2).toLong).toMap
        .filter(_._2 > 0)
    }
  }

  /** The printed Q1 blocks must exist and agree with R1. */
  def q1(w: Workload, printed: String, r1: Map[String, Map[String, Long]]): Seq[String] =
    w.errors.flatMap { e =>
      printedQ1(printed, e.name) match {
        case None => Some(s"no Q1 [R1, ${e.name}] block printed")
        case Some(p) if p != r1(e.name) => Some(s"printed Q1 for ${e.name} is $p, R1 has ${r1(e.name)}")
        case _ => None
      }
    }
}
