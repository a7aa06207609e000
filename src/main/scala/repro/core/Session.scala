package repro.core

import org.apache.spark.sql.SparkSession

/** The Spark session every entry point and the tests run on. */
object Session {

  /** `SPARK_MASTER` or `local[*]`, 2 shuffle partitions for the small
    * query frames, broadcast joins off, and no UI.
    */
  def build(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", 2)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
}
