package verdictbench

/** Per-layer metrics of one traced verdict, from its spans and the jobs the
  * [[JobLedger]] attributed to them.
  */
object LayerMetrics {

  final case class Metric(name: String, value: Double, unit: String)

  val Detectors: Seq[String] = Seq("IF", "empty_entry", "openrefine")

  /** Layers whose spans do the work; `experiment` only groups them. */
  val Leaves: Seq[String] =
    Seq("data", "splits", "clean", "features", "models", "evaluate", "runner", "relations", "queries")

  private def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0 else Stats.quartiles(xs)._2

  /** Smallest share of a cell's time that the spans inside it cover. */
  def minCellCover(spans: Seq[Span]): Option[Double] = {
    val children = spans.groupBy(_.parent)
    spans.filter(_.layer == "experiment").map { c =>
      children.getOrElse(c.id, Nil).map(_.seconds).sum / c.seconds
    }.minOption
  }

  def compute(spans: Seq[Span], c: JobLedger.Counts, models: Seq[String],
              pool: Option[TracedRunner.PoolStats], overheadS: Double): Seq[Metric] = {
    def in(layer: String): String => Boolean = _.startsWith(s"$layer/")
    def of(layer: String) = spans.filter(_.layer == layer)
    def busy(layer: String) = of(layer).map(_.seconds).sum
    def named(layer: String, name: String) = spans.filter(s => s.layer == layer && s.name == name)

    def basic(layer: String, extra: Seq[String]) =
      Seq(Metric(s"$layer.busy_s", busy(layer), "s"),
          Metric(s"$layer.jobs", c.jobs(in(layer)).toDouble, "count")) ++
      extra.map {
        case "calls"  => Metric(s"$layer.calls", of(layer).size.toDouble, "count")
        case "task_s" => Metric(s"$layer.task_s", c.taskSeconds(in(layer)), "s")
      }

    val cells = of("experiment").map(_.seconds)
    val leafBusy = Leaves.map(busy).sum
    val evalCalls = of("evaluate").size
    Seq(
      basic("data", Nil), basic("splits", Nil),
      basic("clean", Seq("calls", "task_s")),
      Detectors.map(d => Metric(s"clean.$d.busy_s", named("clean", d).map(_.seconds).sum, "s")),
      basic("features", Seq("calls", "task_s")),
      basic("models", Seq("calls", "task_s")),
      models.flatMap { m =>
        val fits = named("models", m)
        Seq(Metric(s"models.$m.busy_s", fits.map(_.seconds).sum, "s"),
            Metric(s"models.$m.jobs_per_fit",
              if (fits.isEmpty) 0.0 else c.jobs(_ == s"models/$m").toDouble / fits.size, "count"))
      },
      basic("evaluate", Seq("calls", "task_s")),
      Seq(Metric("evaluate.ms_per_call",
        if (evalCalls == 0) 0.0 else busy("evaluate") * 1e3 / evalCalls, "ms"),
        Metric("experiment.cells", cells.size.toDouble, "count"),
        Metric("experiment.cell_s_p50", median(cells), "s"),
        Metric("experiment.cell_s_max", cells.maxOption.getOrElse(0.0), "s"),
        Metric("experiment.layer_cover_min", minCellCover(spans).getOrElse(0.0), "share"),
        Metric("runner.queue_wait_s", pool.map(_.queueWaitNs / 1e9).getOrElse(0.0), "s"),
        Metric("runner.busy_share",
          pool.map(p => cells.sum / (p.threads * p.wallNs / 1e9)).getOrElse(0.0), "share")),
      basic("relations", Seq("task_s")),
      basic("queries", Seq("calls")),
      Seq(Metric("spark.stages", c.stageCount(_ => true).toDouble, "count"),
        Metric("spark.tasks", c.taskCount(_ => true).toDouble, "count"),
        Metric("spark.task_share", if (leafBusy == 0) 0.0 else c.taskSeconds(_ => true) / leafBusy, "share"),
        Metric("trace.overhead_s", overheadS, "s")),
    ).flatten
  }
}
