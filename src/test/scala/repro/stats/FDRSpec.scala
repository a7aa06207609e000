package repro.stats

import org.scalacheck.{Arbitrary, Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class FDRSpec extends AnyFunSuite {

  private def approxSeq(a: Seq[Double], b: Seq[Double], eps: Double = 1e-9): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) => math.abs(x - y) <= eps }

  test("bonferroni multiplies by m and caps at 1") {
    assert(approxSeq(FDR.bonferroni(Seq(0.01, 0.2, 0.5)), Seq(0.03, 0.6, 1.0)))
  }

  test("BH known example (R p.adjust reference)") {
    // p = (0.01, 0.02, 0.03, 0.04) -> BH = (0.04, 0.04, 0.04, 0.04)
    assert(approxSeq(FDR.benjaminiHochberg(Seq(0.01, 0.02, 0.03, 0.04)),
      Seq(0.04, 0.04, 0.04, 0.04)))
  }

  test("BH known example with distinct adjusted values") {
    // p = (0.005, 0.04, 0.2): m*p/i = (0.015, 0.06, 0.2); monotone -> same.
    assert(approxSeq(FDR.benjaminiHochberg(Seq(0.005, 0.04, 0.2)),
      Seq(0.015, 0.06, 0.2)))
  }

  test("BY equals BH scaled by the harmonic sum") {
    // m = 3, c(3) = 1 + 1/2 + 1/3 = 11/6.
    val c3 = 11.0 / 6.0
    assert(approxSeq(FDR.benjaminiYekutieli(Seq(0.005, 0.04, 0.2)),
      Seq(0.015 * c3, 0.06 * c3, 0.2 * c3)))
  }

  test("BY preserves input order") {
    // Shuffled input: adjusted values must follow their own p-value.
    val p = Seq(0.2, 0.005, 0.04)
    val adj = FDR.benjaminiYekutieli(p)
    val sortedAdj = FDR.benjaminiYekutieli(p.sorted)
    assert(approxSeq(Seq(adj(1), adj(2), adj(0)), sortedAdj))
  }

  /** p-value lists with ties, zeros and ones mixed into uniform draws. */
  private val pValues: Gen[List[Double]] = Gen.listOf(Gen.frequency(
    3 -> Gen.choose(0.0, 1.0), 1 -> Gen.oneOf(0.0, 0.001, 0.01, 0.05, 0.5, 1.0)))

  private def holds(prop: Prop): Unit = {
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  private def adjustments(p: Seq[Double]): Seq[Seq[Double]] =
    Seq(FDR.bonferroni(p), FDR.benjaminiHochberg(p), FDR.benjaminiYekutieli(p))

  test("BY is more conservative than BH which is more conservative than raw") {
    holds(Prop.forAll(pValues) { p =>
      val (bh, by) = (FDR.benjaminiHochberg(p), FDR.benjaminiYekutieli(p))
      p.indices.forall(i => p(i) <= bh(i) * (1 + 1e-12) && bh(i) <= by(i))
    })
  }

  test("every adjusted p-value is at most 1") {
    holds(Prop.forAll(pValues)(p => adjustments(p).forall(_.forall(_ <= 1.0))))
  }

  test("adjusted p-values preserve the ranking of raw p-values") {
    holds(Prop.forAll(pValues) { p =>
      val order = p.indices.sortBy(p)
      adjustments(p).forall(adj => order.zip(order.drop(1)).forall { case (i, j) => adj(i) <= adj(j) })
    })
  }

  test("permuting the input permutes the adjusted p-values the same way") {
    holds(Prop.forAll(pValues, Arbitrary.arbitrary[Long]) { (p, seed) =>
      val perm = new scala.util.Random(seed).shuffle(p.indices.toVector)
      adjustments(p).zip(adjustments(perm.map(p))).forall { case (adj, adjPermuted) =>
        adjPermuted == perm.map(adj)
      }
    })
  }

  test("empty and singleton inputs") {
    assert(FDR.benjaminiYekutieli(Nil).isEmpty)
    assert(approxSeq(FDR.benjaminiYekutieli(Seq(0.03)), Seq(0.03)))
    assert(approxSeq(FDR.benjaminiHochberg(Seq(0.03)), Seq(0.03)))
  }

  test("a sea of nulls drowns one weak signal under BY but not a strong one") {
    val nulls = (1 to 99).map(i => 0.2 + 0.006 * i)
    val weak  = FDR.benjaminiYekutieli(0.01 +: nulls)
    val strong = FDR.benjaminiYekutieli(1e-9 +: nulls)
    assert(weak.head > 0.05)   // 0.01 * 100 * c(100) / 1 >> 0.05
    assert(strong.head < 0.05)
  }
}
