package tdhbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile: the smallest sample with at least p% of the
    * samples at or below it.
    */
  def percentile(xs: Seq[Double], p: Int): Double = {
    val s = xs.sorted
    val rank = math.max(1, math.ceil(p / 100.0 * s.length).toInt)
    s(rank - 1)
  }

  /** The highest whole percentile with at least ten samples beyond it. With
    * fewer than 20 samples that percentile would sit below the median, so the
    * tail is then reported at the median.
    */
  def tailPercentile(n: Int): Int =
    if (n < 20) 50 else math.floor(100.0 * (n - 10) / n).toInt

  def ms(nanos: Long): Double = nanos / 1e6

  val MiB: Double = 1024.0 * 1024.0
}

/** JVM-wide counters read around each op. */
object Jvm {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMillis: Long = gcs.map(_.getCollectionTime).sum
  def gcCount: Long = gcs.map(_.getCollectionCount).sum
  def gcNames: Seq[String] = gcs.map(_.getName)

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes: Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** CPU time used so far by the calling thread. */
  def cpuNanos: Long = threads.getCurrentThreadCpuTime

  /** Heap in use after a forced full collection. */
  def liveHeapMb(): Double = {
    System.gc()
    val rt = Runtime.getRuntime
    (rt.totalMemory - rt.freeMemory) / Stats.MiB
  }

  def flags: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
}

/** A JSON object whose fields keep their order. */
final case class Obj(fields: Seq[(String, Any)])

/** Minimal JSON writer for the run record, the trace and the result line. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').result()
  }

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x is not a finite number")
    x.toString
  }

  def value(v: Any): String = v match {
    case s: String => str(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => num(d)
    case o: Obj => obj(o.fields)
    case s: Seq[_] => s.map(value).mkString("[", ", ", "]")
    case other => str(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")
}
