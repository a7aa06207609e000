package repro.jobs

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{ErrorType, Runner, RunConfig}

/** The behaviour gate: SHA-256 digests of one error type's verdict, one over
  * its measurement rows and one over its R1/R2/R3 rows. A refactor that
  * keeps behaviour reproduces both digests of every error type.
  */
object Digest {

  /** SHA-256 of `lines`, sorted and joined by newlines, in hex. */
  def sha256(lines: Seq[String]): String = {
    val text = lines.sorted.mkString("\n")
    MessageDigest.getInstance("SHA-256").digest(text.getBytes(UTF_8)).map("%02x".format(_)).mkString
  }

  /** A frame's rows as tab-separated lines, each after `prefix`. */
  private def lines(df: DataFrame, prefix: String = ""): Seq[String] =
    df.collect().toSeq.map(r => prefix + r.toSeq.mkString("\t"))

  /** Run `error`'s grid under `cfg`; returns the digest of the measurement
    * rows and the digest of the R1/R2/R3 rows, each line tagged with its
    * relation.
    */
  def of(spark: SparkSession, cfg: RunConfig, error: ErrorType): (String, String) = {
    val rel = Runner.run(spark, cfg, Set(error))
    val relations = Seq("R1" -> rel.r1, "R2" -> rel.r2, "R3" -> rel.r3)
      .flatMap { case (name, df) => lines(df, name + "\t") }
    (sha256(lines(rel.measurements)), sha256(relations))
  }
}
