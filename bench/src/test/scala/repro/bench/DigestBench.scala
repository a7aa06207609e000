package repro.bench

import repro.SparkSpec
import repro.core.{ErrorType, RunConfig}
import repro.core.ErrorType._
import repro.jobs.Digest

/** The behaviour gate: each error type's grid at 2 splits, with all 7
  * models and every method, one seed and no search, reproduces the
  * committed SHA-256 digests of its sorted measurement rows and of its
  * sorted R1/R2/R3 rows (`repro.jobs.Main digest`). A change that alters a
  * measurement or a flag fails here and must name what it changed.
  *
  * The duplicates pair was re-recorded when deduplication became a filter
  * by the first `rid` of each key found on the driver: a deduplicated arm
  * now keeps its input's single partition and row order, where it used to
  * take the partitions of a window's shuffle. 14 of its 112 measurement
  * rows changed, all random forest (whose bootstrap follows the rows'
  * order), by at most 0.063 in a test metric; no R1, R2 or R3 flag
  * changed.
  *
  * The grids take 132 s (missing values), 154 s (outliers), 23 s
  * (duplicates), 18 s (inconsistencies) and 39 s (mislabels) on a 4-vCPU
  * VM at the default CLEANML_PARALLELISM (12).
  */
class DigestBench extends SparkSpec {

  private val cfg = RunConfig.fromEnv.copy(splits = 2, seeds = 1, searchK = 1, models = RunConfig.AllModels)

  /** (measurements, relations) per error type. */
  private val reference: Map[ErrorType, (String, String)] = Map(
    MissingValues -> ("2bd2d221eb1ae21a697985dbe11784eda5a1d082c8bace0c05fe00d1cdc379e6",
      "b106773128f110ee6ef1d1c0ec92206e092f9a1d3c8203f3bc817df1657a5b78"),
    Outliers -> ("28bb16c5b9710cdaa805fbdfca686e254bd6e3297ffd61fff8c7666896ccbff4",
      "f4f37f1081c20ec9d94c885055973402a691ae2c168fe92b64d6ba67c4ad5cab"),
    Duplicates -> ("fda03c702dbc252ddaf5d8febf7cfcd149045af65b93c633bceffb5f7ce0c500",
      "9cf1eb1b6e5c8229acef34626991d7fda38de7606d352962b811ede260d43487"),
    Inconsistencies -> ("0c3f66fd4e3d2d9b2a516b9335f5600997c586e8137757de5e1ff35396610edc",
      "0c77a9c472774e8eeac2b610fcae2cb8478a311688182ed99a51b0cf760746bd"),
    Mislabels -> ("a0ed149f1d447c4375721e070a557556278b956152e6fd552dae23302bad8ebb",
      "d4da1b9faaf546fd2cb6e70adf8ec15d7e504041431feb4579540e00dd3a122b"))

  ErrorType.all.foreach { e =>
    test(s"${e.name}: the 2-split grid reproduces its measurement and relation digests") {
      val t0 = System.nanoTime()
      val got = Digest.of(spark, cfg, e)
      Console.err.println(f"[digest] ${e.name}: ${(System.nanoTime() - t0) / 1e9}%.1f s")
      assert(got == reference(e))
    }
  }
}
