package verdictbench

object Stats {

  /** (q1, median, q3) as Python's `statistics.quantiles(xs, n=4)` gives
    * them (its default "exclusive" method); a single value is all three.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    val s = xs.sorted.toIndexedSeq
    val n = s.size
    require(n > 0, "no values")
    if (n == 1) (s(0), s(0), s(0))
    else {
      def q(k: Int): Double = {
        val m = n + 1
        val j = math.max(1, math.min(n - 1, k * m / 4))
        val delta = k * m - j * 4
        s(j - 1) + (s(j) - s(j - 1)) * delta / 4.0
      }
      (q(1), q(2), q(3))
    }
  }
}
