package verdictbench

import java.io.File

import org.scalatest.funsuite.AnyFunSuite

/** Results must not depend on how many cells run at once. Run with
  * `sbt test` from the benchmark's directory.
  */
class DeterminismSpec extends AnyFunSuite {

  test("fit_grid gives the reference digest at parallelism 1 and at one cell per core") {
    val refs = Main.readReferences(new File("reference.txt"))
    val spark = Main.startSession(Workload.cores, new File("../.bench_build/test"))
    try {
      val digests = Seq(1, Workload.cores).map { p =>
        val w = Workload.byName("fit_grid", p, refs)
        val (pass, _) = new Main.Bench(spark, w, Main.Opts()).pass(s"parallelism $p")(w.verdict(spark))
        assert(pass.problems.isEmpty, s"at parallelism $p")
        pass.digest
      }
      assert(digests.distinct.size == 1, s"digests by parallelism: $digests")
    } finally spark.stop()
  }
}
