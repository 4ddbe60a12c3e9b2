package tdhbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable

/** One timed call into a layer. `op` identifies the op (or set-up pass, or
  * probe) that caused it; spans of one op share it.
  */
final case class Span(op: String, name: String, startNs: Long, endNs: Long) {
  def ms: Double = Stats.ms(endNs - startNs)
}

/** Spans and counters kept in memory by the benchmark around its calls into
  * the program, and written out once the run ends. Untraced runs never touch
  * it.
  */
final class Trace {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  var op: String = "setup"

  def span[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    spans += Span(op, name, t0, System.nanoTime())
    r
  }

  def count(name: String, x: Double): Unit = counters.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += x

  def times(name: String): Seq[Double] = spans.iterator.filter(_.name == name).map(_.ms).toSeq

  /** Median duration of the spans called `name`. */
  def medianMs(name: String): Double = Stats.median(times(name))

  /** Median of the values recorded under counter `name`. */
  def counter(name: String): Double = Stats.median(counters(name).toSeq)

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val lines = spans.map(s => Json.obj(Seq("op" -> s.op, "span" -> s.name,
      "start_ns" -> s.startNs, "dur_ms" -> s.ms))) ++
      counters.map { case (k, v) => Json.obj(Seq("counter" -> k, "values" -> v.toSeq)) }
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}
