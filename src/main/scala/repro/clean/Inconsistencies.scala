package repro.clean

import org.apache.spark.sql.Row

import repro.core.Method
import repro.data.{DataSpec, Rows}
import repro.stats.Descriptive

/** Inconsistency cleaning (paper §3.1.4) — an automated stand-in for the
  * paper's interactive OpenRefine workflow, using OpenRefine's default
  * *fingerprint key-collision* clustering: lowercase, strip punctuation,
  * tokenize, sort + dedup tokens, rejoin. Values sharing a fingerprint are
  * merged to the cluster's most frequent raw representation (ties break
  * lexicographically). The fingerprint→canonical map is built on the
  * training set and applied to both sets; unseen test values are resolved
  * through their own fingerprint.
  */
object Inconsistencies extends Cleaner {
  val method = Method("openrefine", "merge")

  /** OpenRefine's fingerprint keying function. */
  def fingerprint(s: String): String =
    s.toLowerCase
      .replaceAll("[^a-z0-9]+", " ")
      .trim
      .split("\\s+")
      .filter(_.nonEmpty)
      .distinct
      .sorted
      .mkString(" ")

  /** fingerprint -> canonical raw value: the most frequent of a column's
    * non-null training values that share the fingerprint.
    */
  def canonicalMap(values: Array[String]): Map[String, String] =
    values.groupBy(fingerprint).map { case (fp, members) =>
      fp -> Descriptive.mostFrequent(Descriptive.counts(members))
    }

  def clean(spec: DataSpec, train: Seq[Row], test: Seq[Row]): (Seq[Row], Seq[Row]) = {
    val column = spec.inconsCol.getOrElse(sys.error(s"${spec.name} has no inconsistency column"))
    val map = canonicalMap(Rows.values[String](train, column))
    def merge(rows: Seq[Row]): Seq[Row] = rows.map(r => Rows.updated(r, Seq(column)) {
      case (_, v: String) => map.getOrElse(fingerprint(v), v)
      case (_, v)         => v
    })
    (merge(train), merge(test))
  }
}
