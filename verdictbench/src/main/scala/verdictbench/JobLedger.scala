package verdictbench

import scala.collection.mutable

import org.apache.spark.scheduler._

/** Counts Spark jobs, stages, tasks and task run time per *tag*: the value
  * of the [[JobLedger.TagKey]] local property on the thread that submitted
  * the job. The traced run sets the tag to "<layer>/<name>" around each
  * call it times; untraced jobs carry no tag.
  */
final class JobLedger extends SparkListener {
  import JobLedger._

  private val jobTag   = mutable.Map.empty[Int, String]
  private val jobOk    = mutable.Set.empty[Int]
  private val stageTag = mutable.Map.empty[Int, String]
  private val stages   = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private val tasks    = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private val taskMs   = mutable.Map.empty[String, Long].withDefaultValue(0L)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(TagKey))).getOrElse(Untagged)
    jobTag(e.jobId) = tag
    e.stageIds.foreach(stageTag(_) = tag)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (e.jobResult == JobSucceeded) jobOk += e.jobId
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stages(stageTag.getOrElse(e.stageInfo.stageId, Untagged)) += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val tag = stageTag.getOrElse(e.stageId, Untagged)
    tasks(tag) += 1
    if (e.taskMetrics != null) taskMs(tag) += e.taskMetrics.executorRunTime
  }

  def reset(): Unit = synchronized {
    Seq(jobTag, stageTag).foreach(_.clear())
    jobOk.clear(); stages.clear(); tasks.clear(); taskMs.clear()
  }

  /** A copy of the counts; read it only after draining the listener bus. */
  def snapshot(): JobLedger.Counts = synchronized {
    Counts(jobTag.toMap, jobOk.toSet, stages.toMap, tasks.toMap, taskMs.toMap)
  }
}

object JobLedger {
  val TagKey   = "verdictbench.tag"
  val Untagged = "-"

  final case class Counts(jobTag: Map[Int, String], succeeded: Set[Int],
                          stages: Map[String, Long], tasks: Map[String, Long],
                          taskMs: Map[String, Long]) {

    /** The job ids in [from, until) must each have started and succeeded,
      * and no other job may have been seen: otherwise events were dropped.
      */
    def accountingError(from: Int, until: Int): Option[String] = {
      val expected = (from until until).toSet
      if (jobTag.keySet != expected)
        Some(s"listener saw ${jobTag.size} jobs, job ids $from until $until give ${expected.size}")
      else if (!expected.subsetOf(succeeded))
        Some(s"${(expected -- succeeded).size} jobs did not succeed")
      else None
    }

    private def sumWhere(m: Map[String, Long], p: String => Boolean): Long =
      m.collect { case (t, v) if p(t) => v }.sum

    def jobs(p: String => Boolean): Long  = jobTag.values.count(p).toLong
    def stageCount(p: String => Boolean): Long = sumWhere(stages, p)
    def taskCount(p: String => Boolean): Long  = sumWhere(tasks, p)
    def taskSeconds(p: String => Boolean): Double = sumWhere(taskMs, p) / 1e3
  }
}
