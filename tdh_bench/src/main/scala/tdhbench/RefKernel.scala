package tdhbench

import scala.util.Random

/** A fixed reference computation that tracks the speed of the machine.
  *
  * On a shared host one thread's speed drifts by 20–60% in phases of seconds
  * to minutes while its CPU time keeps pace with its wall time, so the drift
  * is the core running slower, not the thread waiting. The benchmark runs
  * this kernel in a slot before every op and after the last one, and reports
  * each op's time rescaled by the mean of the two slots beside it to a
  * machine on which the kernel takes [[NominalMs]].
  *
  * A pass has two halves of about equal time, because the two workloads
  * slow differently in a slow phase: `crowd_bp` follows the first half more
  * closely, `infer_sweep` the second. The first groups a fixed table of
  * claims by source in an open-addressing table, chains them in linked lists
  * of small objects and counts votes (hashing, pointer chasing, short-lived
  * objects). The second runs a fixed number of EM iterations over the same
  * table (`log`, `exp`, small arrays). The table is built from a fixed seed
  * and the kernel uses only its own code, no collection library, so neither
  * a change to the program nor the JIT profiles the program leaves in shared
  * library code move it.
  */
object RefKernel {

  /** Kernel time, in ms, that op times are rescaled to: about its median on
    * a quiet 4-vCPU Xeon (2.0 GHz) under the benchmark's JVM flags.
    */
  val NominalMs = 60.0

  /** Passes run once before the timed loop, so the kernel is compiled. */
  val WarmupReps = 30

  private val NumObjects = 3000
  private val NumSources = 300
  private val ClaimsPerObject = 8
  private val VotePasses = 60
  private val EmIters = 24
  private val TableSize = 1024 // a power of two above NumSources

  private val rnd = new Random(20190326L)
  private val nCands = Array.fill(NumObjects)(2 + rnd.nextInt(5))
  private val srcIds = Array.fill(NumObjects, ClaimsPerObject)(1000 + 7919 * rnd.nextInt(NumSources))
  private val srcVals = Array.tabulate(NumObjects, ClaimsPerObject)((o, _) =>
    if (rnd.nextDouble() < 0.7) 0 else rnd.nextInt(nCands(o)))

  private final class Claim(val obj: Int, val value: Int, val next: Claim)

  private def home(source: Int): Int = (source * 0x9E3779B1) >>> 22

  /** Slot of `source` in an open-addressing table of `keys`, claimed if new. */
  private def slot(keys: Array[Int], source: Int): Int = {
    var h = home(source)
    while (keys(h) != -1 && keys(h) != source) h = (h + 1) & (TableSize - 1)
    keys(h) = source
    h
  }

  /** One kernel pass; returns a checksum of both halves. */
  def run(): Double = votes() + em()

  private def votes(): Double = {
    var total = 0.0
    var pass = 0
    while (pass < VotePasses) {
      val keys = Array.fill(TableSize)(-1)
      val heads = new Array[Claim](TableSize)
      val counts = new Array[Int](TableSize)
      var o = 0
      while (o < NumObjects) {
        var r = 0
        while (r < ClaimsPerObject) {
          val h = slot(keys, srcIds(o)(r))
          heads(h) = new Claim(o, srcVals(o)(r), heads(h))
          counts(h) += 1
          r += 1
        }
        o += 1
      }
      val votes = new Array[Array[Int]](NumObjects)
      var h = 0
      while (h < TableSize) {
        var c = heads(h)
        while (c != null) {
          if (votes(c.obj) == null) votes(c.obj) = new Array[Int](nCands(c.obj))
          votes(c.obj)(c.value) += 1
          c = c.next
        }
        h += 1
      }
      o = 0
      while (o < NumObjects) {
        val v = votes(o)
        var best = 0
        var j = 1
        while (j < v.length) { if (v(j) > v(best)) best = j; j += 1 }
        total += best + math.log(1.0 + v(best)) / (1 + counts(slot(keys, srcIds(o)(0))))
        o += 1
      }
      pass += 1
    }
    total
  }

  private def em(): Double = {
    val keys = Array.fill(TableSize)(-1)
    val q = Array.fill(TableSize)(0.8)
    val mu = new Array[Array[Double]](NumObjects)
    var it = 0
    while (it < EmIters) {
      val num = new Array[Double](TableSize)
      val den = new Array[Double](TableSize)
      var o = 0
      while (o < NumObjects) {
        val n = nCands(o)
        val logp = new Array[Double](n)
        var r = 0
        while (r < ClaimsPerObject) {
          val qs = q(slot(keys, srcIds(o)(r)))
          val u = srcVals(o)(r)
          var v = 0
          while (v < n) { logp(v) += math.log(if (v == u) qs else (1 - qs) / (n - 1)); v += 1 }
          r += 1
        }
        var mx = logp(0)
        var v = 1
        while (v < n) { if (logp(v) > mx) mx = logp(v); v += 1 }
        val p = new Array[Double](n)
        var z = 0.0
        v = 0
        while (v < n) { p(v) = math.exp(logp(v) - mx); z += p(v); v += 1 }
        v = 0
        while (v < n) { p(v) /= z; v += 1 }
        mu(o) = p
        r = 0
        while (r < ClaimsPerObject) {
          val h = slot(keys, srcIds(o)(r))
          num(h) += p(srcVals(o)(r))
          den(h) += 1
          r += 1
        }
        o += 1
      }
      var h = 0
      while (h < TableSize) {
        if (den(h) > 0) q(h) = math.min(0.99, math.max(0.01, num(h) / den(h)))
        h += 1
      }
      it += 1
    }
    var total = 0.0
    var o = 0
    while (o < NumObjects) { total += mu(o)(0); o += 1 }
    total
  }

  private lazy val expected = run()

  /** Wall time of one kernel pass in ms; fails if its result ever changes. */
  def timeOnceMs(): Double = {
    val want = expected
    val t0 = System.nanoTime()
    val got = run()
    val dt = Stats.ms(System.nanoTime() - t0)
    if (got != want) throw new CheckFailed(s"reference kernel gave $got, not $want")
    dt
  }

  /** Median of `reps` kernel passes, in ms. */
  def measureMs(reps: Int): Double = Stats.median(Seq.fill(reps)(timeOnceMs()))
}
