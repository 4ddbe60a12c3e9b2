package tdhbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.assign.{Assigner, EaiAssigner}
import repro.baselines.{InferState, TdhInference, TruthInference}
import repro.core.{TdhHyper, TdhLocal, TdhResult, TdhSpark}
import repro.crowd.{CrowdLoop, RoundTrace, SimWorkers}
import repro.data.{AnswerLog, ObjectView, Record, TdDataset, TruthDataGen}
import repro.eval.Metrics
import repro.tables.Tables

import scala.collection.mutable
import scala.util.Random

/** Seeds derived from the workload seed. The datasets are the generator's
  * calibrated instances that `Tables` uses (seeds 42 and 7), relabelled by
  * the workload seed; the simulated workers draw from 123 + seed. Seed 0
  * gives exactly the `Tables` inputs.
  */
final case class Seeds(relabel: Long, workers: Long)

object Seeds {
  val BirthPlaces = 42L
  val Heritages = 7L
  def apply(seed: Long): Seeds = Seeds(seed, 123 + seed)
}

/** One dataset, regenerated, relabelled and recompiled by each set-up pass.
  *
  * The relabelling permutes object ids, source ids and record order. It makes
  * new inputs from each seed that keep the instance's size and structure:
  * instances from other generator seeds need different numbers of EM
  * iterations, so op cost would follow the seed rather than the code.
  */
final class Data(val key: String, gen: () => TdDataset, seed: Long) {
  var ds: TdDataset = _

  /** Returns the seconds spent in the program's calls (generate, compile). */
  def setup(t: Trace): Double = {
    val t0 = System.nanoTime()
    val raw = t.span(s"data.gen.$key")(gen())
    val t1 = System.nanoTime()
    val d = Data.relabel(raw, seed)
    val t2 = System.nanoTime()
    t.span(s"data.compile.$key")(d.views)
    d.mappedGold
    ds = d
    (t1 - t0 + System.nanoTime() - t2) / 1e9
  }

  def emptyLog = new AnswerLog(ds.numObjects)
}

object Data {
  def relabel(ds: TdDataset, seed: Long): TdDataset =
    if (seed == 0) ds
    else {
      val rnd = new Random(seed)
      val obj = rnd.shuffle((0 until ds.numObjects).toVector)
      val src = rnd.shuffle((0 until ds.numSources).toVector)
      val gold = new Array[Int](ds.numObjects)
      for (o <- 0 until ds.numObjects) gold(obj(o)) = ds.gold(o)
      val records = rnd.shuffle(ds.records).map(r => Record(obj(r.obj), src(r.source), r.value))
      TdDataset(ds.hierarchy, ds.numObjects, ds.numSources, records, gold)
    }
}

/** A workload: its inputs, its op, the checks on the op's output, and the
  * layers its traced op measures. Each op is a closed loop with one client.
  */
abstract class Workload {
  type Out
  def name: String
  /** Datasets, regenerated and recompiled on every set-up pass. */
  def data: Seq[Data]
  /** Set-up done once after the data passes (the SparkSession); seconds. */
  def startOnce(t: Trace): Double = 0.0
  def warmupOps: Int
  /** The op as a user calls it: real objects, no wrappers. */
  def op(): Out
  /** Checks that need more than one op's output or wrapped objects: run
    * once, before any timed op. Fixes the reference output of [[check]].
    * An op it runs traced leaves its spans in `t`.
    */
  def reference(t: Trace): Unit
  /** Invariants of one op's output; throws [[CheckFailed]]. */
  def check(out: Out): Unit
  def accuracy(out: Out): Double
  /** The op with spans and counters around its calls into the layers. */
  def tracedOp(t: Trace): Out
  /** This workload's per-layer metrics, from the traced ops' spans and
    * counters plus standalone probes of its layers.
    */
  def layers(t: Trace): Seq[(String, Double)]
  /** Share of the median traced op's wall time that its layer times cover. */
  def coverage(t: Trace): Double
  /** Inputs for the checks' self-test: views, a valid μ and truth vector. */
  def selfTestInputs: (Array[ObjectView], Array[Array[Double]], Array[Int])
  def settings: Seq[(String, Any)] = Seq.empty
  def probeOps: Int = Workload.ProbeReps
  /** Reference kernel passes per slot beside each op (the slot is their median). */
  def refReps: Int = 1
  def close(): Unit = ()

  /** Measures this workload's layers from inside another workload's traced
    * run, after that run's timed loop: set-up, checked reference op, then
    * traced ops.
    */
  final def probe(t: Trace): Seq[(String, Double)] = {
    t.op = s"probe-$name-setup"
    data.foreach(_.setup(t))
    startOnce(t)
    t.op = s"probe-$name-reference"
    reference(t)
    for (i <- 1 to probeOps) {
      t.op = s"probe-$name-$i"
      check(tracedOp(t))
    }
    layers(t)
  }
}

object Workload {
  val names: Seq[String] = Seq("crowd_bp", "infer_sweep", "spark_her")
  /** Repeats of each standalone layer probe; the metric is their median. */
  val ProbeReps = 3

  def apply(name: String, seed: Long): Workload = name match {
    case "crowd_bp" => new CrowdBp(Seeds(seed))
    case "infer_sweep" => new InferSweep(Seeds(seed))
    case "spark_her" => new SparkHer(Seeds(seed))
  }

  /** Median set-up span times per dataset. */
  def dataLayers(t: Trace, keys: Seq[String]): Seq[(String, Double)] = keys.flatMap { k =>
    Seq(s"data.gen_ms.$k" -> t.medianMs(s"data.gen.$k"), s"data.compile_ms.$k" -> t.medianMs(s"data.compile.$k"))
  }

  /** `TdhLocal.run` on an empty log: cold with the default hyper, per
    * iteration at a fixed 10 iterations, and bytes allocated by one cold run.
    */
  def tdhLocalLayers(t: Trace, d: Data): Seq[(String, Double)] = {
    val k = d.key
    t.op = s"probe-tdh_local-$k"
    var alloc = Seq.empty[Double]
    for (_ <- 1 to ProbeReps) {
      val a0 = Jvm.allocatedBytes
      t.span(s"core.tdh_local.$k")(TdhLocal.run(d.ds.views, d.emptyLog))
      alloc :+= (Jvm.allocatedBytes - a0) / Stats.MiB
      t.span(s"core.tdh_local.${k}_iter10")(TdhLocal.run(d.ds.views, d.emptyLog, TdhHyper(maxIters = 10, tol = 0.0)))
    }
    Seq(s"core.tdh_local.${k}_ms" -> t.medianMs(s"core.tdh_local.$k"),
      s"core.tdh_local.${k}_iter_ms" -> t.medianMs(s"core.tdh_local.${k}_iter10") / 10,
      s"core.tdh_local.${k}_alloc_mb" -> Stats.median(alloc))
  }

  /** `Metrics.accuracy`, `genAccuracy` and `avgDistance` of one estimate. */
  def evalMetrics(t: Trace, ds: TdDataset, est: Array[Int]): Unit =
    t.span("eval.metrics") { Metrics.accuracy(ds, est); Metrics.genAccuracy(ds, est); Metrics.avgDistance(ds, est) }
}

/** Wraps an assigner: checks every round's pairs against the live answer log
  * before they are answered, counts them, and keeps the log.
  */
final class CheckingAssigner(inner: Assigner) extends Assigner {
  val name: String = inner.name
  var assigned = 0L
  var log: AnswerLog = _

  def assign(state: InferState, answers: AnswerLog, workers: Seq[Int], k: Int): Seq[(Int, Int)] = {
    val pairs = inner.assign(state, answers, workers, k)
    Checks.roundAssignment(pairs, k, answers.hasAnswered)
    assigned += pairs.size
    log = answers
    pairs
  }
}

/** Table 4 / Fig. 12 unit: one crowdsourcing session, TDH + EAI on
  * BirthPlaces, from an empty answer log.
  */
final class CrowdBp(seeds: Seeds) extends Workload {
  type Out = (Vector[RoundTrace], InferState)
  val name = "crowd_bp"
  val Rounds = 3
  val K = 5
  val NumWorkers = 10
  val PiP = 0.75

  private val bp = new Data("bp", () => TruthDataGen.birthPlaces(Seeds.BirthPlaces), seeds.relabel)
  val data = Seq(bp)
  val warmupOps = 5
  override def settings = Seq("rounds" -> Rounds, "k" -> K, "workers" -> NumWorkers, "pi_p" -> PiP)

  private def workers = SimWorkers.uniform(NumWorkers, PiP, seeds.workers)
  private def session(assigner: Assigner): Out =
    CrowdLoop.run(bp.ds, new TdhInference(), assigner, workers, Rounds, K)

  def op(): Out = session(new EaiAssigner())

  private var refTruth: Seq[Int] = _
  private var refAccuracy: Seq[Double] = _
  /** EAI checkpoints: round 0 (empty log) and the session's final log. */
  private var checkpoints: Seq[(InferState, AnswerLog)] = _

  def reference(t: Trace): Unit = {
    val wrapped = new CheckingAssigner(new EaiAssigner())
    val (traces, last) = session(wrapped)
    if (wrapped.assigned != Rounds * NumWorkers * K)
      throw new CheckFailed(s"${wrapped.assigned} tasks assigned, budget is ${Rounds * NumWorkers * K}")
    refTruth = last.truthValues.toSeq
    refAccuracy = traces.map(_.accuracy)
    checkpoints = Seq((new TdhInference().infer(bp.ds.views, bp.emptyLog), bp.emptyLog), (last, wrapped.log))
    for ((state, log) <- checkpoints)
      Checks.samePairs(eai(true, state, log), eai(false, state, log))
    check((traces, last))
  }

  private def eai(pruned: Boolean, state: InferState, log: AnswerLog) =
    new EaiAssigner(pruned).assign(state, log, workers.ids, K)

  def check(out: Out): Unit = {
    val (traces, last) = out
    Checks.muRows(last.mu)
    Checks.truthInCands(bp.ds.views, last.truthValues)
    Checks.same("final truth", refTruth, last.truthValues.toSeq)
    Checks.same("per-round accuracy", refAccuracy, traces.map(_.accuracy))
  }

  def accuracy(out: Out): Double = Metrics.accuracy(bp.ds, out._2.truthValues)

  def tracedOp(t: Trace): Out = {
    val wrapped = new CheckingAssigner(new EaiAssigner())
    val out = t.span("crowd.session")(session(wrapped))
    val (traces, _) = out
    val infer = traces.map(_.inferMillis.toDouble)
    val assign = traces.filter(_.round < Rounds).map(_.assignMillis.toDouble)
    infer.foreach(t.count("crowd.round_infer_ms", _))
    assign.foreach(t.count("crowd.round_assign_ms", _))
    t.count("crowd.round_other_ms", (t.times("crowd.session").last - infer.sum - assign.sum) / Rounds)
    t.count("crowd.tasks_assigned", wrapped.assigned.toDouble)
    out
  }

  def layers(t: Trace): Seq[(String, Double)] = {
    t.op = "probe-eai"
    var pruned = 0L
    var unpruned = 0L
    val eaiMs = checkpoints.map { case (state, log) =>
      val (s1, c1) = counting(state); eai(true, s1, log); pruned += c1()
      val (s2, c2) = counting(state); eai(false, s2, log); unpruned += c2()
      Stats.median((1 to Workload.ProbeReps).map { _ =>
        val t0 = System.nanoTime(); eai(true, state, log); Stats.ms(System.nanoTime() - t0)
      })
    }
    for (_ <- 1 to Workload.ProbeReps) Workload.evalMetrics(t, bp.ds, checkpoints.last._1.truthValues)
    Seq(
      "crowd.round_infer_ms" -> t.counter("crowd.round_infer_ms"),
      "crowd.round_assign_ms" -> t.counter("crowd.round_assign_ms"),
      "crowd.round_other_ms" -> t.counter("crowd.round_other_ms"),
      "crowd.tasks_assigned" -> t.counter("crowd.tasks_assigned"),
      "assign.eai_ms" -> eaiMs.sum,
      "assign.eai_answer_prob_calls" -> pruned.toDouble,
      "assign.eai_unpruned_answer_prob_calls" -> unpruned.toDouble,
      "assign.eai_prune_ratio" -> (unpruned - pruned).toDouble / unpruned,
    )
  }

  def coverage(t: Trace): Double =
    (t.counter("crowd.round_infer_ms") * (Rounds + 1) +
      (t.counter("crowd.round_assign_ms") + t.counter("crowd.round_other_ms")) * Rounds) / t.medianMs("crowd.session")

  /** The state with `answerProb` wrapped in a call counter. */
  private def counting(state: InferState): (InferState, () => Long) = {
    var calls = 0L
    val f = state.answerProb
    (state.copy(answerProb = (o, w, u, v) => { calls += 1; f(o, w, u, v) }), () => calls)
  }

  def selfTestInputs = (bp.ds.views, checkpoints.last._1.mu, checkpoints.last._1.truthValues)
}

/** One Table 3 pass: the ten inference algorithms, cold, on BirthPlaces and
  * then Heritages.
  */
final class InferSweep(seeds: Seeds) extends Workload {
  type Out = Seq[Tables.QualityRow]
  val name = "infer_sweep"
  private val bp = new Data("bp", () => TruthDataGen.birthPlaces(Seeds.BirthPlaces), seeds.relabel)
  private val her = new Data("her", () => TruthDataGen.heritages(Seeds.Heritages), seeds.relabel)
  val data = Seq(bp, her)
  val warmupOps = 1
  override def refReps = 5
  override def probeOps = 1

  def op(): Out = Tables.table3(bp.ds) ++ Tables.table3(her.ds)

  private var refRows: Out = _
  private var tdhBp: InferState = _

  /** The pass rebuilt from `Tables.inferenceAlgorithms`, so every
    * algorithm's state can be checked; its rows must equal `Tables.table3`'s.
    */
  private def pass(t: Option[Trace]): Out = for {
    d <- data
    alg <- Tables.inferenceAlgorithms(d.ds)
  } yield {
    val st = t.fold(alg.infer(d.ds.views, d.emptyLog))(_.span(span(alg, d))(alg.infer(d.ds.views, d.emptyLog)))
    val est = st.truthValues
    t.foreach(Workload.evalMetrics(_, d.ds, est))
    if (t.isEmpty) {
      Checks.truthInCands(d.ds.views, est)
      if (alg.name == "TDH") {
        Checks.muRows(st.mu)
        if (d eq bp) tdhBp = st
      }
    }
    Tables.QualityRow(alg.name, Metrics.accuracy(d.ds, est), Metrics.genAccuracy(d.ds, est), Metrics.avgDistance(d.ds, est))
  }

  def reference(t: Trace): Unit = {
    refRows = pass(None)
    check(op())
  }

  def check(out: Out): Unit = Checks.same("table3 rows", refRows, out)

  def accuracy(out: Out): Double = out.map(_.accuracy).sum / out.length

  def tracedOp(t: Trace): Out = t.span("sweep.pass")(pass(Some(t)))

  /** Span name of one algorithm's inference in a traced pass. */
  private def span(alg: TruthInference, d: Data): String =
    if (alg.name == "TDH") s"sweep.core.tdh_local.${d.key}" else s"sweep.baselines.${alg.name}.${d.key}"

  def layers(t: Trace): Seq[(String, Double)] = for {
    d <- data
    alg <- Tables.inferenceAlgorithms(d.ds) if alg.name != "TDH"
  } yield s"baselines.${alg.name}.${d.key}_ms" -> t.medianMs(span(alg, d))

  def coverage(t: Trace): Double = {
    val layerMs = for (d <- data; alg <- Tables.inferenceAlgorithms(d.ds)) yield t.medianMs(span(alg, d))
    (layerMs.sum + t.medianMs("eval.metrics") * layerMs.length) / t.medianMs("sweep.pass")
  }

  def selfTestInputs = (bp.ds.views, tdhBp.mu, tdhBp.truthValues)
}

/** Job, stage and task counts and times of the Spark jobs run while
  * registered. Read only after the listener bus has drained.
  */
final class SparkCounters extends SparkListener {
  private val jobStart = mutable.HashMap.empty[Int, Long]
  val jobIntervals = mutable.ArrayBuffer.empty[(Long, Long)]
  var stages = 0L
  var tasks = 0L
  var shuffleWriteBytes = 0L
  var taskCpuNs = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = jobStart(e.jobId) = e.time
  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    jobStart.remove(e.jobId).foreach(s => jobIntervals += ((s, e.time)))
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks += 1
    Option(e.taskMetrics).foreach { m =>
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      taskCpuNs += m.executorCpuTime
    }
  }

  /** Wall time covered by at least one running job. */
  def jobMillis: Long = {
    var covered = 0L
    var end = Long.MinValue
    for ((s, e) <- jobIntervals.sortBy(_._1)) {
      val from = math.max(s, end)
      if (e > from) covered += e - from
      end = math.max(end, e)
    }
    covered
  }
}

/** The dataflow path: one `TdhSpark.runOnDataset` on Heritages with the
  * default hyperparameters and a fixed iteration count.
  */
final class SparkHer(seeds: Seeds) extends Workload {
  type Out = (TdhSpark.SparkRun, Array[Int])
  val name = "spark_her"
  val Iters = 2
  val Threads: Int = math.min(4, Runtime.getRuntime.availableProcessors)
  val ShufflePartitions = 8

  private val her = new Data("her", () => TruthDataGen.heritages(Seeds.Heritages), seeds.relabel)
  val data = Seq(her)
  val warmupOps = 3
  override def refReps = 5
  override def probeOps = 0
  private var spark: SparkSession = _

  override def settings = Seq(
    "max_iters" -> Iters,
    "spark_master" -> s"local[$Threads]",
    "spark_shuffle_partitions" -> ShufflePartitions,
    "spark_log_level" -> "WARN",
  )

  override def startOnce(t: Trace): Double = {
    val t0 = System.nanoTime()
    spark = t.span("core.tdh_spark.session")(SparkSession.builder()
      .master(s"local[$Threads]")
      .appName("tdh-bench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.local.dir", sys.props.getOrElse("tdhbench.sparkLocalDir", "spark-local"))
      .config("spark.sql.warehouse.dir", sys.props.getOrElse("tdhbench.warehouseDir", "spark-warehouse"))
      .getOrCreate())
    spark.sparkContext.setLogLevel("WARN")
    (System.nanoTime() - t0) / 1e9
  }

  def op(): Out = TdhSpark.runOnDataset(spark, her.ds, her.emptyLog, TdhHyper(), maxIters = Iters)

  private var refTruth: Seq[Int] = _
  private var local: TdhResult = _

  private def sparkMu(run: TdhSpark.SparkRun): Map[(Int, Int), Double] =
    run.mu.collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap

  /** The reference op is traced, so a probe needs no second (slow) op. */
  def reference(t: Trace): Unit = {
    val out = tracedOp(t)
    local = TdhLocal.run(her.ds.views, her.emptyLog, TdhHyper(maxIters = Iters, tol = 0.0))
    Checks.closeMu(her.ds.views, local.mu, sparkMu(out._1), 1e-9)
    refTruth = out._2.toSeq
    check(out)
  }

  def check(out: Out): Unit = {
    val (run, est) = out
    if (run.iterations != Iters) throw new CheckFailed(s"${run.iterations} iterations, expected $Iters")
    Checks.muRows(Checks.muByObject(her.ds.views, sparkMu(run)))
    Checks.truthInCands(her.ds.views, est)
    Checks.same("spark truth", refTruth, est.toSeq)
  }

  def accuracy(out: Out): Double = Metrics.accuracy(her.ds, out._2)

  def tracedOp(t: Trace): Out = {
    val sc = spark.sparkContext
    val c = new SparkCounters
    org.apache.spark.BenchListenerBus.drain(sc)
    sc.addSparkListener(c)
    val out = try t.span("core.tdh_spark.run")(op())
    finally {
      org.apache.spark.BenchListenerBus.drain(sc)
      sc.removeSparkListener(c)
    }
    val runMs = t.times("core.tdh_spark.run").last
    t.count("core.tdh_spark.jobs", c.jobIntervals.length.toDouble)
    t.count("core.tdh_spark.stages", c.stages.toDouble)
    t.count("core.tdh_spark.tasks", c.tasks.toDouble)
    t.count("core.tdh_spark.shuffle_write_mb", c.shuffleWriteBytes / Stats.MiB)
    t.count("core.tdh_spark.task_cpu_ms", c.taskCpuNs / 1e6)
    t.count("core.tdh_spark.job_ms", c.jobMillis.toDouble)
    t.count("core.tdh_spark.driver_ms", runMs - c.jobMillis)
    out
  }

  def layers(t: Trace): Seq[(String, Double)] = {
    for (_ <- 1 to Workload.ProbeReps) Workload.evalMetrics(t, her.ds, refTruth.toArray)
    val counted = Seq("jobs", "stages", "tasks", "shuffle_write_mb", "task_cpu_ms", "job_ms", "driver_ms")
    Seq(
      "core.tdh_spark.session_s" -> t.medianMs("core.tdh_spark.session") / 1000,
      "core.tdh_spark.run_ms" -> t.medianMs("core.tdh_spark.run"),
    ) ++ counted.map(n => s"core.tdh_spark.$n" -> t.counter(s"core.tdh_spark.$n"))
  }

  def coverage(t: Trace): Double =
    (t.counter("core.tdh_spark.job_ms") + t.counter("core.tdh_spark.driver_ms")) / t.medianMs("core.tdh_spark.run")

  def selfTestInputs = (her.ds.views, local.mu, local.truthValues(her.ds.views))

  override def close(): Unit = if (spark != null) spark.stop()
}
