package repro.stats

/** Raw and one-/two-tailed p-values of a single paired-sample t-test.
  *
  * The test statistic is computed on the differences d_i = after_i -
  * before_i, so a positive mean difference means "cleaning improved the
  * metric" (paper §4.2.2):
  *   - p0: two-tailed, H0 mu = 0
  *   - p1: upper-tailed, Ha mu > 0  (cleaning helps)
  *   - p2: lower-tailed, Ha mu < 0  (cleaning hurts)
  */
final case class TTestResult(n: Int, meanDiff: Double, t: Double,
                             p0: Double, p1: Double, p2: Double)

/** Paired-sample t-tests over metric pairs, exactly as paper §4.2.2. */
object TTest {

  /** Run all three paired t-tests on (before, after) metric pairs.
    *
    * Degenerate inputs:
    *   - fewer than two pairs: no test exists, so p0 = p1 = p2 = 1 (never
    *     significant) and t = 0;
    *   - two or more pairs with zero variance in the differences: p-values
    *     are 1 when the constant difference is 0, and 0 in its direction
    *     otherwise (p0 = 0 and p1 = 0 for a positive difference, p0 = 0 and
    *     p2 = 0 for a negative one), with t = ±infinity.
    */
  def paired(pairs: Seq[(Double, Double)]): TTestResult = {
    require(pairs.nonEmpty, "paired t-test needs at least one pair")
    val d    = pairs.map { case (b, a) => a - b }
    val n    = d.size
    val mean = d.sum / n
    if (n < 2) return TTestResult(n, mean, 0.0, 1.0, 1.0, 1.0)
    val varD = d.map(x => (x - mean) * (x - mean)).sum / (n - 1)
    if (varD <= 0.0) return degenerate(n, mean)
    val se = math.sqrt(varD / n)
    val t  = mean / se
    val df = (n - 1).toDouble
    // Tails computed directly (not as 1 - CDF) to keep precision at p~1e-17.
    val p1 = Dist.studentTUpperTail(t, df)    // P(T >= t): evidence mu > 0
    val p2 = Dist.studentTUpperTail(-t, df)   // P(T <= t): evidence mu < 0
    val p0 = 2.0 * math.min(p1, p2)
    TTestResult(n, mean, t, math.min(1.0, p0), p1, p2)
  }

  private def degenerate(n: Int, mean: Double): TTestResult =
    if (mean > 0)      TTestResult(n, mean, Double.PositiveInfinity, 0.0, 0.0, 1.0)
    else if (mean < 0) TTestResult(n, mean, Double.NegativeInfinity, 0.0, 1.0, 0.0)
    else               TTestResult(n, mean, 0.0, 1.0, 1.0, 1.0)
}
