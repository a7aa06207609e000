package repro.stats

/** Distribution functions needed by the paired t-test machinery: log-gamma
  * via Lanczos, regularized incomplete beta via the Lentz continued
  * fraction, and the Student-t CDF on top of the incomplete beta.
  *
  * Spark ships commons-math3, whose `Beta.regularizedBeta` agrees with
  * these within 1e-12 relative (`DistSpec`) but differs in the last bits.
  * The raw p-values are part of every relation digest, so this
  * implementation stays.
  */
object Dist {

  /** Natural log of the gamma function (Lanczos approximation, g=7). */
  def logGamma(x: Double): Double = {
    require(x > 0, s"logGamma domain: x=$x")
    val g = 7.0
    val coef = Array(
      0.99999999999980993, 676.5203681218851, -1259.1392167224028,
      771.32342877765313, -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5) {
      // Reflection formula.
      math.log(math.Pi / math.sin(math.Pi * x)) - logGamma(1.0 - x)
    } else {
      val z = x - 1.0
      var a = coef(0)
      val t = z + g + 0.5
      var i = 1
      while (i < coef.length) { a += coef(i) / (z + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (z + 0.5) * math.log(t) - t + math.log(a)
    }
  }

  /** Continued fraction for the incomplete beta (Numerical Recipes betacf). */
  private def betaCF(a: Double, b: Double, x: Double): Double = {
    val MaxIter = 300
    val Eps     = 3e-14
    val FpMin   = 1e-300
    val qab = a + b
    val qap = a + 1.0
    val qam = a - 1.0
    var c = 1.0
    var d = 1.0 - qab * x / qap
    if (math.abs(d) < FpMin) d = FpMin
    d = 1.0 / d
    var h = d
    var m = 1
    var converged = false
    while (m <= MaxIter && !converged) {
      val m2 = 2 * m
      var aa = m * (b - m) * x / ((qam + m2) * (a + m2))
      d = 1.0 + aa * d
      if (math.abs(d) < FpMin) d = FpMin
      c = 1.0 + aa / c
      if (math.abs(c) < FpMin) c = FpMin
      d = 1.0 / d
      h *= d * c
      aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
      d = 1.0 + aa * d
      if (math.abs(d) < FpMin) d = FpMin
      c = 1.0 + aa / c
      if (math.abs(c) < FpMin) c = FpMin
      d = 1.0 / d
      val del = d * c
      h *= del
      if (math.abs(del - 1.0) < Eps) converged = true
      m += 1
    }
    h
  }

  /** Regularized incomplete beta I_x(a, b). */
  def incompleteBeta(a: Double, b: Double, x: Double): Double = {
    require(a > 0 && b > 0, s"incompleteBeta params: a=$a b=$b")
    if (x <= 0.0) 0.0
    else if (x >= 1.0) 1.0
    else {
      val lnBeta = logGamma(a + b) - logGamma(a) - logGamma(b) +
        a * math.log(x) + b * math.log(1.0 - x)
      val front = math.exp(lnBeta)
      if (x < (a + 1.0) / (a + b + 2.0)) front * betaCF(a, b, x) / a
      else 1.0 - front * betaCF(b, a, 1.0 - x) / b
    }
  }

  /** Upper tail P(T >= t) of the Student-t distribution, computed directly
    * from the incomplete beta so extreme tails (p ~ 1e-17, far below the
    * double-precision epsilon around 1.0) do not cancel to zero.
    */
  def studentTUpperTail(t: Double, df: Double): Double = {
    require(df > 0, s"studentTUpperTail df=$df")
    if (t.isNaN) Double.NaN
    else if (t == 0.0) 0.5
    else {
      val x = df / (df + t * t)
      val p = 0.5 * incompleteBeta(df / 2.0, 0.5, x)
      if (t > 0) p else 1.0 - p
    }
  }

  /** CDF of the Student-t distribution with `df` degrees of freedom. */
  def studentTCdf(t: Double, df: Double): Double =
    1.0 - studentTUpperTail(t, df)
}
