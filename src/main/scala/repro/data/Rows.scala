package repro.data

import scala.reflect.ClassTag

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.GenericRowWithSchema
import org.apache.spark.sql.types.StructType

/** The rows a cell runs on: driver-side `Row`s that carry their schema, so
  * every step reads and rewrites their cells by column name.
  */
object Rows {

  /** `rows` as a one-partition frame of `schema`, in order. */
  def frame(spark: SparkSession, schema: StructType, rows: Seq[Row]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, numSlices = 1), schema)

  /** The non-null cells of column `c`, in row order. */
  def values[A: ClassTag](rows: Seq[Row], c: String): Array[A] =
    rows.iterator.filterNot(r => r.isNullAt(r.fieldIndex(c))).map(_.getAs[A](c)).toArray

  /** `r` with each cell of `cols` replaced by `f(column, cell)`. */
  def updated(r: Row, cols: Iterable[String])(f: (String, Any) => Any): Row = {
    val cells = r.toSeq.toArray
    cols.foreach { c => val i = r.fieldIndex(c); cells(i) = f(c, cells(i)) }
    new GenericRowWithSchema(cells, r.schema)
  }
}
