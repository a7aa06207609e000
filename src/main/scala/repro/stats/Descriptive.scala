package repro.stats

/** The statistics the cleaners fit on a training column (paper §4.1 step 2),
  * over plain arrays, with one set of conventions: an empty column gives
  * 0.0, the sample standard deviation of fewer than two values is 0.0, and
  * mode ties go to the smallest value under the type's ordering.
  *
  * Given the values in the order Spark aggregates them (one partition, row
  * order), `mean`, `stddevSamp` and `percentile` equal Spark SQL's `avg`,
  * `stddev_samp` and exact `percentile` bit for bit.
  */
object Descriptive {

  /** Sequential sum from 0.0 divided by n, as `avg`. */
  def mean(xs: Array[Double]): Double =
    if (xs.isEmpty) 0.0 else xs.foldLeft(0.0)(_ + _) / xs.length

  /** Welford's running second moment m2, then sqrt(m2 / (n - 1)), as the
    * update rule of `stddev_samp` (Spark's `CentralMomentAgg`).
    */
  def stddevSamp(xs: Array[Double]): Double =
    if (xs.length < 2) 0.0
    else {
      val (n, _, m2) = xs.foldLeft((0.0, 0.0, 0.0)) { case ((n, avg, m2), x) =>
        val delta = x - avg
        val deltaN = delta / (n + 1.0)
        (n + 1.0, avg + deltaN, m2 + delta * (delta - deltaN))
      }
      math.sqrt(m2 / (n - 1.0))
    }

  /** Exact percentile p in [0, 1]: position p·(n−1) on the sorted values,
    * interpolated linearly between its neighbours, as `percentile`.
    */
  def percentile(xs: Array[Double], p: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val sorted = xs.sorted
      val position = (sorted.length - 1) * p
      val (lower, higher) = (position.floor, position.ceil)
      val (lo, hi) = (sorted(lower.toInt), sorted(higher.toInt))
      if (lower == higher || lo == hi) lo
      else (higher - position) * lo + (position - lower) * hi
    }

  /** The most frequent value. */
  def mode(xs: Array[Double]): Double = if (xs.isEmpty) 0.0 else mostFrequent(counts(xs))

  /** How often each value occurs. */
  def counts[A](xs: Iterable[A]): Map[A, Long] = xs.groupMapReduce(identity)(_ => 1L)(_ + _)

  /** The value with the largest count, of a non-empty set of counts; ties
    * go to the smallest value under `ord`.
    */
  def mostFrequent[A](counts: Iterable[(A, Long)])(implicit ord: Ordering[A]): A =
    counts.reduce((a, b) => if (b._2 > a._2 || (b._2 == a._2 && ord.lt(b._1, a._1))) b else a)._1
}
