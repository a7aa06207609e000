package repro.stats

import org.scalatest.funsuite.AnyFunSuite

class TTestSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, eps: Double = 1e-6): Boolean =
    math.abs(a - b) <= eps

  test("hand-computed paired t-test") {
    // diffs = (1, 2, 3): mean 2, sd 1, se 1/sqrt(3), t = 2*sqrt(3) ~ 3.4641, df 2.
    val pairs = Seq((0.0, 1.0), (0.0, 2.0), (0.0, 3.0))
    val r = TTest.paired(pairs)
    assert(r.n == 3)
    assert(approx(r.meanDiff, 2.0))
    assert(approx(r.t, 2.0 * math.sqrt(3.0), 1e-9))
    // p1 = 1 - F(3.4641, df=2); Cauchy-free check against Dist directly.
    assert(approx(r.p1, 1.0 - Dist.studentTCdf(r.t, 2.0), 1e-12))
    assert(approx(r.p0, 2.0 * r.p1, 1e-12))
    assert(approx(r.p2, 1.0 - r.p1, 1e-12))
  }

  test("positive effect gives small p1, p2 near 1") {
    val pairs = (1 to 20).map(i => (0.60 + 0.001 * i, 0.70 + 0.001 * i))
    val r = TTest.paired(pairs)
    assert(r.meanDiff > 0)
    assert(r.p1 < 1e-6)
    assert(r.p0 < 1e-6)
    assert(r.p2 > 0.99)
  }

  test("negative effect gives small p2, p1 near 1") {
    val pairs = (1 to 20).map(i => (0.70 + 0.001 * i, 0.60 + 0.001 * i))
    val r = TTest.paired(pairs)
    assert(r.meanDiff < 0)
    assert(r.p2 < 1e-6)
    assert(r.p0 < 1e-6)
    assert(r.p1 > 0.99)
  }

  test("no effect gives insignificant p-values") {
    val rng = new scala.util.Random(5)
    val pairs = (1 to 20).map { _ =>
      val base = 0.7 + 0.05 * rng.nextGaussian()
      (base + 0.01 * rng.nextGaussian(), base + 0.01 * rng.nextGaussian())
    }
    val r = TTest.paired(pairs)
    assert(r.p0 > 0.05)
  }

  test("one-tailed p is half the two-tailed p (symmetric statistic)") {
    val rng = new scala.util.Random(17)
    (0 until 50).foreach { _ =>
      val shift = rng.nextGaussian() * 0.05
      val pairs = (1 to 12).map { _ =>
        val b = 0.6 + 0.1 * rng.nextDouble()
        (b, b + shift + 0.02 * rng.nextGaussian())
      }
      val r = TTest.paired(pairs)
      if (r.t.isFinite && r.t != 0.0) {
        assert(approx(r.p0, 2.0 * math.min(r.p1, r.p2), 1e-12))
      }
    }
  }

  test("degenerate: constant zero differences are insignificant") {
    val r = TTest.paired(Seq((0.5, 0.5), (0.7, 0.7), (0.9, 0.9)))
    assert(r.p0 == 1.0 && r.p1 == 1.0 && r.p2 == 1.0)
  }

  test("degenerate: constant positive difference is significant") {
    val r = TTest.paired(Seq((0.5, 0.6), (0.7, 0.8), (0.8, 0.9)))
    assert(r.p0 < 1e-10 && r.p1 < 1e-10 && r.p2 > 1.0 - 1e-10)
  }

  test("degenerate: constant negative difference is significant downward") {
    // (Floating point makes the two -0.1 diffs differ in the last ulp, so
    // this exercises the near-degenerate huge-t path, not the exact one.)
    val r = TTest.paired(Seq((0.6, 0.5), (0.8, 0.7)))
    assert(r.p0 < 1e-10 && r.p2 < 1e-10 && r.p1 > 1.0 - 1e-10)
  }

  test("single pair has no test: all p-values are 1") {
    Seq((0.5, 0.9), (0.9, 0.5), (0.5, 0.5)).foreach { pair =>
      val r = TTest.paired(Seq(pair))
      assert(r.n == 1 && r.p0 == 1.0 && r.p1 == 1.0 && r.p2 == 1.0, s"$pair")
    }
  }

  test("degenerate: an exactly constant nonzero difference over n >= 2 is p = 0 in its direction") {
    // Binary fractions: both differences are exactly 0.25, so the variance is 0.
    val up = TTest.paired(Seq((0.5, 0.75), (0.25, 0.5)))
    assert(up.t == Double.PositiveInfinity && up.p0 == 0.0 && up.p1 == 0.0 && up.p2 == 1.0)
    val down = TTest.paired(Seq((0.75, 0.5), (0.5, 0.25)))
    assert(down.p0 == 0.0 && down.p2 == 0.0 && down.p1 == 1.0)
  }

  test("paper Table 12/13 shape: strong consistent improvement is P-like") {
    // Reproduce the paper's example: 20 splits, B ~0.63, D ~0.67.
    val b = Seq(0.632488, 0.634757, 0.625812, 0.636404, 0.637161, 0.644726,
      0.635514, 0.641478, 0.649177, 0.629773, 0.631954, 0.638362, 0.641032,
      0.63992, 0.640098, 0.634535, 0.636271, 0.632443, 0.636671, 0.632176)
    val d = Seq(0.657321, 0.668625, 0.666266, 0.662394, 0.674633, 0.673654,
      0.67401, 0.674989, 0.680196, 0.669381, 0.67401, 0.676992, 0.672452,
      0.670049, 0.669871, 0.676591, 0.666489, 0.673431, 0.673565, 0.668803)
    val r = TTest.paired(b.zip(d))
    // Paper reports p0 = 3.82e-17, p1 = 1.91e-17, p2 ~ 1.
    assert(r.p0 < 1e-15)
    assert(r.p1 < 1e-15)
    assert(r.p2 > 0.999999)
    // Same order of magnitude as the paper's scipy-computed 3.82e-17 (the
    // extreme tail of the t CDF differs in implementation precision).
    assert(r.p0 / 3.82e-17 > 0.2 && r.p0 / 3.82e-17 < 5.0, s"p0=${r.p0}")
  }
}
