package verdictbench

/** The little JSON the benchmark writes. */
object Json {

  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null" else java.lang.Double.toString(x)

  def result(correct: Boolean, attempted: Int, failed: Int,
             metrics: Seq[LayerMetrics.Metric]): String = {
    val ms = metrics.map(m => s"${str(m.name)}: {\"value\": ${num(m.value)}, \"unit\": ${str(m.unit)}}")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  def span(s: Span): String =
    Seq("id" -> s.id.toString, "parent" -> s.parent.toString, "layer" -> str(s.layer),
        "name" -> str(s.name), "cell" -> str(s.cell), "thread" -> str(s.thread),
        "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString)
      .map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
