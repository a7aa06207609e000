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
  * The missing values, outliers, inconsistencies and mislabels pairs were
  * re-recorded when AdaBoost's per-round trees moved to a one-partition
  * frame: they used to be fit on a local frame split into as many
  * partitions as the session's default parallelism (the machine's cores
  * under `local[*]`), and MLlib's weighted split finding sums per
  * partition. 57 of the 2,660 measurement rows changed, all AdaBoost
  * (Credit, KDD, Airbnb, Sensor, Company), by at most 0.109 in a metric;
  * no R1, R2 or R3 flag changed.
  *
  * AdaBoost's base trees then moved from MLlib fits to the driver
  * (`WeightedTree`) and `Features.Train.frame` marked its label 2-valued;
  * every digest held.
  *
  * In two runs the grids took 52–97 s (missing values), 75–96 s
  * (outliers), 9–13 s (duplicates), 9–11 s (inconsistencies) and 21–24 s
  * (mislabels) on a 4-vCPU VM at the default CLEANML_PARALLELISM (12).
  */
class DigestBench extends SparkSpec {

  private val cfg = RunConfig.fromEnv.copy(splits = 2, seeds = 1, searchK = 1, models = RunConfig.AllModels)

  /** (measurements, relations) per error type. */
  private val reference: Map[ErrorType, (String, String)] = Map(
    MissingValues -> ("6e0b779f725fd963c7367cb3adf5892790bc89cace213cbc54e286723b945c18",
      "d50b4b402563d4b7fdccd5a473823065f37e1ed48fc2cd5af3fbb85180055222"),
    Outliers -> ("05dffc3c4e5fc288768cd579c05d4f8ad808111bb06b1e0ba865affef3a7bac2",
      "a6e8e8eab479c6d6953e8902ad92b6f650e010619ee238920a9a17c041ed4ad5"),
    Duplicates -> ("fda03c702dbc252ddaf5d8febf7cfcd149045af65b93c633bceffb5f7ce0c500",
      "9cf1eb1b6e5c8229acef34626991d7fda38de7606d352962b811ede260d43487"),
    Inconsistencies -> ("0c248b3ab53086c435707921b5f8c3ab8feebcd728509827a909b224888a11c6",
      "04b44f9b27de4e21289c308796ee6e7916399673c1e25da27c48469cc5ed660d"),
    Mislabels -> ("6acb4e01a4f68fb937b62d2d488585c5697cf57424036eba74a84b9f645c7164",
      "a2fd99aa32d93941613975802bf2293544ec2629781da4d0c4c005754a3b5838"))

  ErrorType.all.foreach { e =>
    test(s"${e.name}: the 2-split grid reproduces its measurement and relation digests") {
      val t0 = System.nanoTime()
      val got = Digest.of(spark, cfg, e)
      Console.err.println(f"[digest] ${e.name}: ${(System.nanoTime() - t0) / 1e9}%.1f s")
      assert(got == reference(e))
    }
  }
}
