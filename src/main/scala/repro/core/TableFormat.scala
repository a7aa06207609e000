package repro.core

/** Console rendering of Table-15-style flag distributions, printing the
  * measured P/S/N shares next to the paper's where known.
  */
object TableFormat {

  /** "P 59.5% (75) | S 26.2% (33) | N 14.3% (18)". */
  def dist(counts: Map[String, Long]): String = {
    val total = math.max(1L, counts.values.sum)
    Flag.all.map { f =>
      val c = counts.getOrElse(f, 0L)
      f"$f ${100.0 * c / total}%5.1f%% ($c%d)"
    }.mkString(" | ")
  }

  def distInt(counts: Map[String, Int]): String =
    dist(counts.map { case (k, v) => k -> v.toLong })

  /** Print one query block: measured vs paper per group row. */
  def printBlock(title: String, measured: Map[Seq[String], Map[String, Long]],
                 paper: Seq[String] => Option[Map[String, Int]]): Unit = {
    println(s"== $title")
    measured.toSeq.sortBy(_._1.mkString("/")).foreach { case (key, counts) =>
      val label = if (key.isEmpty) "(all)" else key.mkString("/")
      println(f"  $label%-28s measured: ${dist(counts)}")
      paper(key).foreach(p => println(f"  ${""}%-28s paper:    ${distInt(p)}"))
    }
  }
}
