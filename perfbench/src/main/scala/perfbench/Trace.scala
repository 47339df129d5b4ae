package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spans recorded from outside the program, around each call into a layer.
  * They are kept in memory and written out once, when the run ends.
  */
final class Spans {
  private final case class Span(name: String, iteration: Int, parent: String,
                                startNs: Long, endNs: Long)

  private val done = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[String]
  private val counts = mutable.ArrayBuffer.empty[(String, Int, Double)]

  /** Spans of one traced solve share its iteration number. */
  var iteration = 0

  def apply[T](name: String)(body: => T): T = {
    val parent = open.headOption.getOrElse("")
    open = name :: open
    val t0 = System.nanoTime()
    try body
    finally {
      done += Span(name, iteration, parent, t0, System.nanoTime())
      open = open.tail
    }
  }

  /** Runs `body` in a span and also returns the span's duration in seconds. */
  def timed[T](name: String)(body: => T): (T, Double) = {
    val value = apply(name)(body)
    val s = done.last
    (value, (s.endNs - s.startNs) / 1e9)
  }

  /** A count taken at a layer boundary, kept next to the spans. */
  def count(name: String, value: Double): Unit = counts += ((name, iteration, value))

  /** Writes one JSON object per line: every span, then every count. */
  def write(path: java.nio.file.Path): Unit = {
    val lines = done.map(s =>
      s"""{"span":"${s.name}","iteration":${s.iteration},"parent":"${s.parent}",""" +
      s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""") ++
      counts.map { case (n, i, v) => s"""{"count":"$n","iteration":$i,"value":$v}""" }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.asJava)
  }
}

/** Task durations of the Spark jobs run inside a tagged call, from a listener
  * the benchmark registers. Listener events arrive asynchronously, so the
  * reader waits for the tagged job's end event.
  */
final class TaskTimes(sc: SparkContext) extends SparkListener {
  private val TagKey = "perfbench.call"
  private val taskMs = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]
  private val jobTag = mutable.Map.empty[Int, String]
  private val finalStage = mutable.Map.empty[Int, Int]
  private val endedJobs = mutable.ArrayBuffer.empty[Int]
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(TagKey))).foreach { tag =>
      jobTag(e.jobId) = tag
      // The result stage is created after its parents, so it has the largest id.
      finalStage(e.jobId) = e.stageIds.max
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (jobTag.contains(e.jobId)) { endedJobs += e.jobId; notifyAll() }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.taskInfo.successful)
      taskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
  }

  /** Runs `body` with its Spark jobs tagged, then returns the task durations
    * in seconds of the result stage of the last tagged job.
    */
  def tagged[T](tag: String)(body: => T): (T, Seq[Double]) = {
    sc.setLocalProperty(TagKey, tag)
    val value = try body finally sc.setLocalProperty(TagKey, null)
    synchronized {
      def jobs = endedJobs.filter(jobTag(_) == tag)
      val deadline = System.currentTimeMillis() + 30000L
      while (jobs.isEmpty && System.currentTimeMillis() < deadline) wait(100L)
      require(jobs.nonEmpty, s"the Spark listener saw no job end for $tag")
      (value, taskMs.getOrElse(finalStage(jobs.max), mutable.ArrayBuffer.empty).map(_ / 1000.0).toSeq)
    }
  }
}

/** Garbage-collection time and heap peak of this JVM. */
object Jvm {
  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum / 1000.0

  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peak usage since [[resetHeapPeak]], in MiB: an
    * upper bound on the peak heap, since pools may peak at different times.
    */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)

  def heapMaxMb: Long = Runtime.getRuntime.maxMemory / (1024L * 1024L)
}
