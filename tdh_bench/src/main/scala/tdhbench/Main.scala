package tdhbench

import java.nio.file.Paths

import scala.collection.mutable
import scala.util.control.NonFatal

/** Runs one workload of the TDH benchmark and prints its metrics.
  *
  * {{{
  * Main --workload <crowd_bp|infer_sweep|spark_her> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Order of a run: set-up passes (the median is `setup_s`), the reference op
  * with the checks that need wrapped objects, the checks' self-test, warm-up
  * ops, then the timed closed loop until the ops' summed wall time reaches
  * `--seconds`. A [[RefKernel]] slot runs before every op and after the last;
  * op times are reported rescaled by the slots beside them. Every op's
  * output is checked outside its timing. With `--trace 1` every other op is
  * traced and layer probes follow the loop.
  *
  * The last stdout line is the result: `correct`, `attempted`, `failed` and
  * the end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
  * The line before it is the run record. Exits 1 if any check failed.
  */
object Main {

  val SetupPasses = 15

  /** Per-layer metrics in output order. */
  val perLayer: Seq[String] = {
    val algs = Seq("VOTE", "LCA", "DOCS", "ASUMS", "MDC", "ACCU", "POPACCU", "LFC", "CRH")
    Seq("data.gen_ms.bp", "data.gen_ms.her", "data.compile_ms.bp", "data.compile_ms.her") ++
      Seq("bp", "her").flatMap(k => Seq(s"core.tdh_local.${k}_ms", s"core.tdh_local.${k}_iter_ms",
        s"core.tdh_local.${k}_alloc_mb")) ++
      Seq("crowd.round_infer_ms", "crowd.round_assign_ms", "crowd.round_other_ms", "crowd.tasks_assigned",
        "assign.eai_ms", "assign.eai_answer_prob_calls", "assign.eai_unpruned_answer_prob_calls",
        "assign.eai_prune_ratio") ++
      algs.flatMap(a => Seq(s"baselines.$a.bp_ms", s"baselines.$a.her_ms")) ++
      Seq("eval.metrics_ms") ++
      Seq("session_s", "run_ms", "jobs", "stages", "tasks", "shuffle_write_mb", "task_cpu_ms", "job_ms",
        "driver_ms").map("core.tdh_spark." + _) ++
      Seq("jvm.gc_ms", "jvm.gc_count", "jvm.alloc_mb", "trace.overhead_frac", "trace.coverage_frac")
  }

  /** Every layer, whichever workload runs: the workload's own layers from its
    * traced ops, then the other workloads' layers probed after the timed
    * loop. The Spark probe comes last, so a SparkSession never runs beside a
    * local measurement.
    */
  private def tracedLayers(wl: Workload, t: Trace, seed: Long): Map[String, Double] = {
    val own = wl.layers(t) :+ ("trace.coverage_frac" -> wl.coverage(t))
    val (spark, local) = Workload.names.filterNot(_ == wl.name).map(Workload(_, seed)).partition(_.name == "spark_her")
    val localLayers = local.flatMap(_.probe(t))
    val datasets = (wl.data ++ local.flatMap(_.data)).filter(_.ds != null).distinctBy(_.key)
    val tdhLocal = datasets.flatMap(Workload.tdhLocalLayers(t, _))
    val sparkLayers = spark.flatMap(x => try x.probe(t) finally x.close())
    (own ++ localLayers ++ tdhLocal ++ sparkLayers ++ Workload.dataLayers(t, Seq("bp", "her")) :+
      ("eval.metrics_ms" -> t.medianMs("eval.metrics"))).toMap
  }

  def unit(metric: String): String = metric.stripSuffix(".bp").stripSuffix(".her") match {
    case "norm_ops_per_s" => "1/s"
    case "accuracy" => "fraction"
    case m if m.endsWith("_s") => "s"
    case m if m.endsWith("_ms") => "ms"
    case m if m.endsWith("_mb") => "MB"
    case m if m.endsWith("_frac") || m.endsWith("_ratio") => "fraction"
    case _ => "count"
  }

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required"))
    require(Workload.names.contains(workload), s"unknown workload $workload; one of ${Workload.names.mkString(", ")}")
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", "--trace is 0 or 1")
    Args(workload, kv.getOrElse("seed", "0").toLong, kv.getOrElse("seconds", "10").toDouble, trace == "1")
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val wl = Workload(args.workload, args.seed)
    val code = try run(args, wl) finally wl.close()
    sys.exit(code)
  }

  private def run(args: Args, wl: Workload): Int = {
    val t = new Trace
    val setupPasses = (1 to SetupPasses).map { i =>
      t.op = s"setup-$i"
      wl.data.map(_.setup(t)).sum
    }
    t.op = "setup-once"
    val setupS = Stats.median(setupPasses) + wl.startOnce(t)

    wl.reference(new Trace)
    (Checks.selfTest _).tupled(wl.selfTestInputs)
    for (_ <- 1 until wl.warmupOps) wl.check(wl.op())
    RefKernel.measureMs(RefKernel.WarmupReps)

    val untracedNs = mutable.ArrayBuffer.empty[Long]
    val tracedNs = mutable.ArrayBuffer.empty[Long]
    val tracedAt = mutable.ArrayBuffer.empty[Boolean]
    val gcMs, gcCount, allocMb, cpuMs = mutable.ArrayBuffer.empty[Double]
    // Reference kernel times: one slot before each op and one after the last.
    val refMs = mutable.ArrayBuffer(RefKernel.measureMs(wl.refReps))
    var attempted, failed = 0
    var accuracy = Double.NaN
    var totalNs = 0L
    val budgetNs = (args.seconds * 1e9).toLong
    while (totalNs < budgetNs || untracedNs.isEmpty || (args.trace && tracedNs.isEmpty)) {
      val traced = args.trace && attempted % 2 == 1
      t.op = s"op-$attempted"
      val (g0, c0, a0, u0) = (Jvm.gcMillis, Jvm.gcCount, Jvm.allocatedBytes, Jvm.cpuNanos)
      val t0 = System.nanoTime()
      val out = try Some(if (traced) wl.tracedOp(t) else wl.op()) catch {
        case NonFatal(e) => Console.err.println(s"op $attempted threw: $e"); None
      }
      val dt = System.nanoTime() - t0
      cpuMs += Stats.ms(Jvm.cpuNanos - u0)
      gcMs += (Jvm.gcMillis - g0).toDouble
      gcCount += (Jvm.gcCount - c0).toDouble
      allocMb += (Jvm.allocatedBytes - a0) / Stats.MiB
      totalNs += dt
      attempted += 1
      (if (traced) tracedNs else untracedNs) += dt
      tracedAt += traced
      refMs += RefKernel.measureMs(wl.refReps)
      val ok = out.exists { o =>
        try { wl.check(o); accuracy = wl.accuracy(o); true } catch {
          case e: CheckFailed => Console.err.println(s"op ${attempted - 1} failed a check: ${e.getMessage}"); false
        }
      }
      if (!ok) failed += 1
    }
    val liveHeap = Jvm.liveHeapMb()

    val opMs = untracedNs.map(Stats.ms).toSeq
    // Each op rescaled by the mean of the kernel slots on either side of it.
    val scale = tracedAt.indices.map(i => RefKernel.NominalMs / ((refMs(i) + refMs(i + 1)) / 2))
    val (tracedIdx, untracedIdx) = tracedAt.indices.partition(tracedAt)
    val normOpMs = opMs.zip(untracedIdx.map(scale)).map { case (m, f) => m * f }
    val normTracedMs = tracedNs.map(Stats.ms).toSeq.zip(tracedIdx.map(scale)).map { case (m, f) => m * f }
    val tailPct = Stats.tailPercentile(opMs.length)
    val metrics: Seq[(String, Double)] =
      if (!args.trace) Seq(
        "setup_s" -> setupS,
        "norm_op_p50_ms" -> Stats.median(normOpMs),
        "norm_op_tail_ms" -> Stats.percentile(normOpMs, tailPct),
        "norm_ops_per_s" -> normOpMs.length / (normOpMs.sum / 1000),
        "accuracy" -> accuracy,
        "live_heap_mb" -> liveHeap,
      )
      else {
        val layers = tracedLayers(wl, t, args.seed) ++ Seq(
          "jvm.gc_ms" -> Stats.median(gcMs.toSeq),
          "jvm.gc_count" -> Stats.median(gcCount.toSeq),
          "jvm.alloc_mb" -> Stats.median(allocMb.toSeq),
          "trace.overhead_frac" -> (Stats.median(normTracedMs) / Stats.median(normOpMs) - 1),
        )
        val missing = perLayer.toSet -- layers.keySet
        val unknown = layers.keySet -- perLayer
        require(missing.isEmpty && unknown.isEmpty, s"per-layer metrics missing: $missing, unlisted: $unknown")
        t.write(Paths.get(sys.props.getOrElse("tdhbench.outDir", "."), "traces", s"${args.workload}-seed${args.seed}.jsonl"))
        perLayer.map(m => m -> layers(m))
      }

    val record = Seq(
      "workload" -> args.workload,
      "seed" -> args.seed,
      "input_seeds" -> Obj(Seq("birthplaces_generator" -> Seeds.BirthPlaces,
        "heritages_generator" -> Seeds.Heritages, "relabel" -> Seeds(args.seed).relabel,
        "workers" -> Seeds(args.seed).workers)),
      "trace" -> args.trace,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm_version" -> System.getProperty("java.vm.version"),
      "jvm_flags" -> Jvm.flags,
      "gc" -> Jvm.gcNames,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / Stats.MiB,
      "commit" -> sys.props.getOrElse("tdhbench.commit", "unknown"),
      "source_sha256" -> sys.props.getOrElse("tdhbench.sourceHash", "unknown"),
      "setup_passes" -> SetupPasses,
      "warmup_ops" -> wl.warmupOps,
      "ops_attempted" -> attempted,
      "ops_untraced" -> untracedNs.length,
      "ops_traced" -> tracedNs.length,
      "failed_frac" -> failed.toDouble / attempted,
      "tail_percentile" -> tailPct,
      "timed_seconds" -> totalNs / 1e9,
      "op_p50_ms" -> Stats.median(opMs),
      "op_tail_ms" -> Stats.percentile(opMs, tailPct),
      "ops_per_s" -> opMs.length / (opMs.sum / 1000),
      "ref_kernel_nominal_ms" -> RefKernel.NominalMs,
      "ref_kernel_reps" -> wl.refReps,
      "ref_kernel_p50_ms" -> Stats.median(refMs.toSeq),
      "op_ms" -> opMs,
      "norm_op_ms" -> normOpMs,
      "ref_kernel_ms" -> refMs.toSeq,
      "op_cpu_ms" -> cpuMs.toSeq,
      "op_gc_ms" -> gcMs.toSeq,
      "op_alloc_mb" -> allocMb.toSeq,
      "traced_op_ms" -> tracedNs.map(Stats.ms).toSeq,
    ) ++ wl.settings
    println(Json.obj(Seq("run_record" -> Obj(record))))
    println(Json.obj(Seq(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> Obj(metrics.map { case (k, v) => k -> Obj(Seq("value" -> v, "unit" -> unit(k))) }),
    )))
    if (failed == 0) 0 else 1
  }
}
