package repro

import java.util.concurrent.{Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.core.Session

/** Base for every test: one SparkSession for the whole run, built by
  * `Session.build` as every entry point builds it.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  // Start the session before any test: code under test that fits MLlib
  // models from driver rows finds it as `SparkSession.active`.
  override def beforeAll(): Unit = { super.beforeAll(); spark }

  override def afterAll(): Unit = { super.afterAll() }

  /** The number of Spark jobs `body` starts. */
  def jobsOf(body: => Unit): Int = {
    val sc = spark.sparkContext
    val started = new AtomicInteger()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try { body; ListenerBusAccess.drain(sc) }
    finally sc.removeSparkListener(listener)
    started.get()
  }

  /** Run `tasks` on four threads and return their results in order, or
    * rethrow the first failure after all have ended: each task is many
    * small Spark jobs, which the driver schedules one by one.
    */
  def onFourThreads[A](tasks: Seq[() => A]): Seq[A] = {
    val pool = Executors.newFixedThreadPool(4)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try Await.result(Future.traverse(tasks)(t => Future(t())), Duration.Inf)
    finally { pool.shutdown(); pool.awaitTermination(Long.MaxValue, TimeUnit.NANOSECONDS) }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Session.build("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
