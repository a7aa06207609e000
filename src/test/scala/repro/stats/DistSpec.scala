package repro.stats

import org.apache.commons.math3.special.Beta
import org.scalatest.funsuite.AnyFunSuite

class DistSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, eps: Double = 1e-6): Boolean =
    math.abs(a - b) <= eps

  test("logGamma matches known factorials") {
    // Gamma(n) = (n-1)!
    assert(approx(Dist.logGamma(1.0), 0.0))
    assert(approx(Dist.logGamma(2.0), 0.0))
    assert(approx(Dist.logGamma(5.0), math.log(24.0)))
    assert(approx(Dist.logGamma(11.0), math.log(3628800.0), 1e-5))
  }

  test("logGamma(0.5) = log(sqrt(pi))") {
    assert(approx(Dist.logGamma(0.5), 0.5 * math.log(math.Pi)))
  }

  test("incompleteBeta boundary values") {
    assert(Dist.incompleteBeta(2.0, 3.0, 0.0) == 0.0)
    assert(Dist.incompleteBeta(2.0, 3.0, 1.0) == 1.0)
  }

  test("incompleteBeta symmetric case I_0.5(a,a) = 0.5") {
    for (a <- Seq(0.5, 1.0, 2.0, 7.5))
      assert(approx(Dist.incompleteBeta(a, a, 0.5), 0.5))
  }

  test("incompleteBeta(1,1,x) = x (uniform CDF)") {
    for (x <- Seq(0.1, 0.25, 0.5, 0.9))
      assert(approx(Dist.incompleteBeta(1.0, 1.0, x), x))
  }

  test("incompleteBeta(2,1,x) = x^2") {
    for (x <- Seq(0.2, 0.5, 0.8))
      assert(approx(Dist.incompleteBeta(2.0, 1.0, x), x * x))
  }

  test("incompleteBeta is monotone in x") {
    val rng = new scala.util.Random(7)
    (0 until 200).foreach { _ =>
      val a = 0.5 + 9.5 * rng.nextDouble()
      val b = 0.5 + 9.5 * rng.nextDouble()
      val x = 0.01 + 0.97 * rng.nextDouble()
      assert(Dist.incompleteBeta(a, b, x) <= Dist.incompleteBeta(a, b, x + 0.01) + 1e-12)
    }
  }

  test("studentTCdf at 0 is 0.5") {
    for (df <- Seq(1.0, 2.0, 10.0, 30.0))
      assert(approx(Dist.studentTCdf(0.0, df), 0.5))
  }

  test("studentTCdf df=1 is the Cauchy CDF") {
    // Cauchy CDF: 1/2 + atan(t)/pi
    for (t <- Seq(-3.0, -1.0, 0.5, 2.0, 10.0))
      assert(approx(Dist.studentTCdf(t, 1.0), 0.5 + math.atan(t) / math.Pi, 1e-8))
  }

  test("studentTCdf matches known critical values") {
    // Standard t-table: P(T_19 <= 2.093) = 0.975, P(T_9 <= 1.833) = 0.95.
    assert(approx(Dist.studentTCdf(2.093, 19.0), 0.975, 5e-4))
    assert(approx(Dist.studentTCdf(1.833, 9.0), 0.95, 5e-4))
    assert(approx(Dist.studentTCdf(2.861, 19.0), 0.995, 5e-4))
  }

  test("studentTCdf approaches the normal CDF for large df") {
    // Phi(1.96) ~= 0.9750
    assert(approx(Dist.studentTCdf(1.96, 100000.0), 0.975, 1e-3))
  }

  test("studentTCdf symmetry: F(-t) = 1 - F(t)") {
    val rng = new scala.util.Random(11)
    (0 until 200).foreach { _ =>
      val t  = -8.0 + 16.0 * rng.nextDouble()
      val df = 1.0 + 49.0 * rng.nextDouble()
      assert(approx(Dist.studentTCdf(-t, df), 1.0 - Dist.studentTCdf(t, df), 1e-9))
    }
  }

  test("studentTCdf is monotone in t") {
    val rng = new scala.util.Random(13)
    (0 until 200).foreach { _ =>
      val t  = -5.0 + 9.9 * rng.nextDouble()
      val df = 1.0 + 39.0 * rng.nextDouble()
      assert(Dist.studentTCdf(t, df) <= Dist.studentTCdf(t + 0.1, df) + 1e-12)
    }
  }

  test("heavier tails at lower df") {
    // For the same positive t, smaller df leaves more mass in the tail.
    assert(Dist.studentTCdf(2.0, 2.0) < Dist.studentTCdf(2.0, 30.0))
  }

  test("studentTUpperTail agrees with commons-math3's regularized beta to 1e-12 relative") {
    for (df <- 1 to 39; t <- (-120 to 120).map(_ * 0.5)) {
      val half = 0.5 * Beta.regularizedBeta(df / (df + t * t), df / 2.0, 0.5)
      val want = if (t < 0) 1.0 - half else half
      val got = Dist.studentTUpperTail(t, df)
      assert(math.abs(got - want) <= 1e-12 * math.abs(want), s"t=$t df=$df: $got vs $want")
    }
  }
}
