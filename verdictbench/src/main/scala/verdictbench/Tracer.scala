package verdictbench

import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.SparkContext

/** One timed call into a layer. `parent` is the enclosing span (0 for
  * none); `cell` names the grid cell the span belongs to, if any.
  */
final case class Span(id: Long, parent: Long, layer: String, name: String, cell: String,
                      thread: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans in memory. Around each span the thread's Spark local
  * property [[JobLedger.TagKey]] is set to "<layer>/<name>", so the
  * [[JobLedger]] attributes the span's jobs, stages and tasks to it.
  */
final class Tracer(sc: SparkContext) {
  private val ids     = new AtomicLong(0)
  private val current = new ThreadLocal[(Long, String)] { override def initialValue() = (0L, "") }
  private val buf     = ArrayBuffer.empty[Span]

  /** Set by a traced grid once its cell pool has finished. */
  @volatile var pool: Option[TracedRunner.PoolStats] = None

  def span[A](layer: String, name: String, cell: String = "")(body: => A): A = {
    val id = ids.incrementAndGet()
    val (parent, parentCell) = current.get()
    val spanCell = if (cell.nonEmpty) cell else parentCell
    val prevTag = sc.getLocalProperty(JobLedger.TagKey)
    sc.setLocalProperty(JobLedger.TagKey, s"$layer/$name")
    current.set((id, spanCell))
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      current.set((parent, parentCell))
      sc.setLocalProperty(JobLedger.TagKey, prevTag)
      buf.synchronized {
        buf += Span(id, parent, layer, name, spanCell, Thread.currentThread.getName, t0, t1)
      }
    }
  }

  def spans: Seq[Span] = buf.synchronized(buf.toList)
}
