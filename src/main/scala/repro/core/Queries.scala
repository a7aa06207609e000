package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** The analysis queries of paper §2.2: the Q1..Q5 blocks of Table 15, each
  * a count of a relation's rows by `flag` and at most one more column.
  * All blocks of one relation and error type come from one
  * `GROUPING SETS` query; its `grouping(c)` flags say which block a result
  * row belongs to.
  */
object Queries {

  /** One Table 15 block: its name and its group column (None for Q1). */
  final case class Block(name: String, by: Option[String])

  /** Group key -> flag -> count: the measured rows of one block. */
  type Counts = Map[Seq[String], Map[String, Long]]

  /** The blocks that apply to relation `relation` ("R1", "R2" or "R3") for
    * one error type, in print order: Q2 for every error type but missing
    * values (BD only), Q3 on R1 only (R2/R3 have no model attribute), Q4.1
    * and Q4.2 for the multi-method error types outside R3, Q1 and Q5
    * always.
    */
  def blocks(relation: String, error: ErrorType): Seq[Block] = {
    val multiMethod = error == ErrorType.Outliers || error == ErrorType.MissingValues
    Seq(
      Some(Block("Q1", None)),
      Option.when(error != ErrorType.MissingValues)(Block("Q2", Some("scenario"))),
      Option.when(relation == "R1")(Block("Q3", Some("model"))),
      Option.when(multiMethod && relation != "R3")(Block("Q4.1", Some("detect"))),
      Option.when(multiMethod && relation != "R3")(Block("Q4.2", Some("repair"))),
      Some(Block("Q5", Some("dataset")))).flatten
  }

  private def groupingCol(c: String): String = s"grouping_$c"

  /** The one query behind `table15`: `relation`'s rows of this error type,
    * counted over one grouping set per block. Columns: every group column,
    * `flag`, `cnt`, and `grouping_<c>` (1 where `c` is not grouped) per
    * group column.
    */
  def groupingSets(relation: DataFrame, blocks: Seq[Block], error: ErrorType): DataFrame = {
    val by = blocks.flatMap(_.by).distinct
    relation.filter(col("error_type") === error.name)
      .groupingSets(blocks.map(b => (b.by.toSeq :+ "flag").map(col)), (by :+ "flag").map(col): _*)
      .agg(count(lit(1)).as("cnt"), by.map(c => grouping(c).as(groupingCol(c))): _*)
  }

  /** Every block of relation `name` for one error type, from one query.
    * A result row belongs to the block whose group column is the one its
    * grouping flags mark as grouped; a null group value is the key "∅". A
    * block with no rows maps to no counts.
    */
  def table15(relation: DataFrame, name: String, error: ErrorType): Seq[(Block, Counts)] = {
    val bs = blocks(name, error)
    val by = bs.flatMap(_.by).distinct
    val rows = groupingSets(relation, bs, error).collect().toSeq
    def grouped(r: Row): Set[String] = by.filter(c => r.getAs[Byte](groupingCol(c)) == 0).toSet
    bs.map { b =>
      b -> rows.filter(r => grouped(r) == b.by.toSet)
        .groupMap(r => b.by.toSeq.map(c => Option(r.getAs[Any](c)).fold("∅")(_.toString)))(
          r => r.getAs[String]("flag") -> r.getAs[Long]("cnt"))
        .map { case (k, counts) => k -> counts.toMap }
    }
  }
}
