package repro.core

import org.apache.spark.{HashPartitioner, SparkContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{AnswerLog, ClaimTable, ObjectView, TdDataset}
import repro.hier.Hierarchy

/** TDH inference (§3) as object-partitioned EM on Spark — the distributed
  * form of [[TdhLocal]]: the same [[EmDriver]] over the same per-object
  * [[TdhLocal.Kernel]].
  *
  * μ_o depends only on object o's claims, and φ/ψ are three sums per actor.
  * So records and answers are co-grouped by object into the session's default
  * parallelism, each partition compiles its objects' [[ObjectView]]s once from
  * a broadcast [[Hierarchy]], and each map evaluation of the driver is one
  * job: every partition maps its μ slots under broadcast φ/ψ to new ones and
  * returns its per-actor type sums, max |Δμ|, log-posterior terms and
  * (SQUAREM) norm parts. The backend folds the partials in partition order
  * (so repeated runs agree bit for bit); the driver applies the shared
  * Eq. (10)/(11) M-step. μ never leaves its partition.
  *
  * Results match [[TdhLocal]] to float tolerance (see TdhSparkSpec).
  */
object TdhSpark {

  final case class SparkRun(
      mu: DataFrame, // (obj, v, mu)
      phi: DataFrame, // (source, p1, p2, p3)
      psi: DataFrame, // (worker, q1, q2, q3)
      truth: DataFrame, // (obj, truth)
      iterations: Int, // map evaluations, as TdhResult.iterations
      finalDelta: Double = Double.NaN, // max |Δμ| of the evaluation that produced mu (Double.MaxValue if none ran)
      converged: Boolean = false, // finalDelta reached the tolerance before the evaluation cap
      objective: Double = Double.NaN, // as TdhResult.objective
  )

  /** The objects of one partition with their claims compiled by partition-local
    * actor ids, and the μ slots of [[EmDriver]] over them, with the outputs of
    * the map evaluation that made this Part: the per-actor type sums of its
    * E-step and its stats. Immutable: each evaluation makes a new Part with
    * fresh arrays in the slots it writes, so a recomputed partition never
    * starts from a later μ.
    *
    * @param rejected the first answer of the partition that does not fit its
    *                 object, as an error message
    */
  private final class Part(
      val claims: ClaimTable,
      val mu: Array[Array[Array[Double]]],
      val phiAcc: Array[Array[Double]],
      val psiAcc: Array[Array[Double]],
      val stats: EvalStats,
      val rejected: Option[String],
  ) extends Serializable {
    def views: Array[ObjectView] = claims.views

    /** Map evaluation `e` under φ/ψ indexed by global actor id; srcIdx/wkrIdx
      * map this partition's actor ids to global ones.
      */
    def next(e: MapEval, phi: Array[Array[Double]], psi: Array[Array[Double]],
        srcIdx: Array[Int], wkrIdx: Array[Int], hyper: TdhHyper): Part = {
      val kernel = new TdhLocal.Kernel(claims, hyper)
      def fresh = views.map(v => new Array[Double](v.nCands))
      val nextMu = mu.clone()
      nextMu(e.out) = fresh
      if (e.phase == 2) nextMu(e.in) = fresh
      val nextPhiAcc = Array.fill(srcIdx.length)(new Array[Double](3))
      val nextPsiAcc = Array.fill(wkrIdx.length)(new Array[Double](3))
      val scratch = new Array[Double](views.iterator.map(_.nCands).maxOption.getOrElse(0))
      val num = Array.fill(views.length)(scratch)
      val st = kernel.eval(e, mu, nextMu, num, srcIdx.map(phi), wkrIdx.map(psi), nextPhiAcc, nextPsiAcc)
      new Part(claims, nextMu, nextPhiAcc, nextPsiAcc, st, rejected)
    }
  }

  private object Part {

    /** Compile one partition's co-grouped claims, objects in id order and each
      * object's claims sorted, so the partition iterates in a fixed order.
      */
    def build(
        groups: Iterator[(Int, (Iterable[(Int, Int)], Iterable[(Int, Int)]))],
        h: Hierarchy,
        hyper: TdhHyper,
    ): Part = {
      val isAnc = (a: Int, d: Int) => a != h.root && h.isAncestor(a, d)
      val objs = groups.toArray.sortBy(_._1)
      var rejected = Option.empty[String]
      def reject(o: Int, w: Int, v: Int, why: String): Unit =
        if (rejected.isEmpty) rejected = Some(s"answer (obj, worker, value) = ($o, $w, $v): $why")
      for ((o, (recs, ans)) <- objs if recs.isEmpty; (w, v) <- ans) reject(o, w, v, "the object has no records")
      val kept = objs.filter(_._2._1.nonEmpty)
      val views = kept.map { case (o, (recs, _)) => ObjectView.build(o, recs.toSeq.sorted, isAnc, h.depth) }
      val log = new AnswerLog(kept.length)
      for (i <- kept.indices; (w, v) <- kept(i)._2._2.toSeq.sorted) {
        val j = views(i).candIndex(v)
        if (j < 0) reject(views(i).obj, w, v, "the value is not a candidate of the object")
        else log.add(i, w, j)
      }
      val claims = ClaimTable(views, log)
      val kernel = new TdhLocal.Kernel(claims, hyper)
      val mu = new Array[Array[Array[Double]]](EmDriver.Slots)
      mu(0) = Array.tabulate(views.length)(kernel.initMu)
      new Part(claims, mu, Array.empty, Array.empty, null, rejected)
    }
  }

  /** μ of a Spark run: the partitions' slots. Each evaluation is one job
    * over the current state, whose result becomes the new state.
    */
  private final class SparkMu(
      sc: SparkContext,
      var state: RDD[Part],
      srcIdx: Array[Array[Int]],
      wkrIdx: Array[Array[Int]],
      hyper: TdhHyper,
  ) extends MuBackend {
    private val bcIdx = sc.broadcast((srcIdx, wkrIdx))

    def eval(e: MapEval, phi: Array[Array[Double]], psi: Array[Array[Double]],
        phiAcc: Array[Array[Double]], psiAcc: Array[Array[Double]]): EvalStats = {
      // copies: the driver later overwrites these slots in place, and a
      // local-mode broadcast hands tasks the very object that was broadcast
      val bcTrust = sc.broadcast((phi.map(_.clone), psi.map(_.clone)))
      val (idx, hyp) = (bcIdx, hyper)
      val next = state.mapPartitionsWithIndex { (k, parts) =>
        val (ph, ps) = bcTrust.value
        val (si, wi) = idx.value
        parts.map(_.next(e, ph, ps, si(k), wi(k), hyp))
      }
      next.localCheckpoint()
      val partials = next.map(p => (p.phiAcc, p.psiAcc, p.stats)).collect()
      // Spark warns that a locally checkpointed RDD cannot be recomputed once
      // unpersisted; nothing reads the previous state again.
      state.unpersist(blocking = false)
      state = next
      var st = EvalStats(0.0, 0.0, 0.0, 0.0)
      for (k <- partials.indices) {
        val (pa, qa, ps) = partials(k)
        for (i <- pa.indices; t <- 0 until 3) phiAcc(srcIdx(k)(i))(t) += pa(i)(t)
        for (i <- qa.indices; t <- 0 until 3) psiAcc(wkrIdx(k)(i))(t) += qa(i)(t)
        st = st + ps
      }
      st
    }
  }

  /** @param maxIters a cap on map evaluations that can only lower
    *                 `hyper.maxIters`; by default it leaves it as it is
    */
  def run(
      spark: SparkSession,
      records: DataFrame, // (obj, source, value)
      answers: DataFrame, // (obj, worker, value)
      h: Hierarchy,
      hyper: TdhHyper = TdhHyper(),
      maxIters: Int = Int.MaxValue,
  ): SparkRun = {
    import spark.implicits._
    val sc = spark.sparkContext
    def byObj(df: DataFrame, actor: String): RDD[(Int, (Int, Int))] =
      df.select("obj", actor, "value").rdd.map(r => (r.getInt(0), (r.getInt(1), r.getInt(2))))
    val bcH = sc.broadcast(h)
    val state: RDD[Part] = byObj(records, "source")
      .cogroup(byObj(answers, "worker"), new HashPartitioner(sc.defaultParallelism))
      .mapPartitions(it => Iterator(Part.build(it, bcH.value, hyper)))
    state.localCheckpoint()

    // Ingestion: every partition's actors and claim counts, and the first
    // answer that does not fit its object.
    val ingested = state.map(p =>
      (p.claims.srcIds, p.claims.claimsPerSource, p.claims.wkrIds, p.claims.claimsPerWorker, p.rejected)).collect()
    ingested.flatMap(_._5).headOption.foreach(msg => throw new IllegalArgumentException(msg))
    val srcIds = ingested.flatMap(_._1).distinct.sorted
    val wkrIds = ingested.flatMap(_._3).distinct.sorted
    def toGlobal(ids: Array[Int], local: Array[Int]) = local.map(java.util.Arrays.binarySearch(ids, _))
    val srcIdx = ingested.map(i => toGlobal(srcIds, i._1))
    val wkrIdx = ingested.map(i => toGlobal(wkrIds, i._3))
    def claims(n: Int, idx: Array[Array[Int]], counts: Array[Array[Int]]): Array[Int] = {
      val c = new Array[Int](n)
      for (k <- idx.indices; i <- idx(k).indices) c(idx(k)(i)) += counts(k)(i)
      c
    }

    val mu = new SparkMu(sc, state, srcIdx, wkrIdx, hyper)
    val out = EmDriver.run(mu, hyper,
      claims(srcIds.length, srcIdx, ingested.map(_._2)), claims(wkrIds.length, wkrIdx, ingested.map(_._4)),
      EmDriver.startTrust(srcIds, hyper.alphaArr, None), EmDriver.startTrust(wkrIds, hyper.betaArr, None),
      math.min(hyper.maxIters, maxIters), accelerate = true)

    val slot = out.slot
    val muDf = mu.state.flatMap(p => for (o <- p.views.indices; j <- 0 until p.views(o).nCands)
      yield (p.views(o).obj, p.views(o).cands(j), p.mu(slot)(o)(j))).toDF("obj", "v", "mu")
    val truth = mu.state.flatMap(p => p.views.indices.map(o =>
      (p.views(o).obj, p.views(o).cands(TdhProb.argmaxTruth(p.views(o), p.mu(slot)(o)))))).toDF("obj", "truth")
    def trustDf(ids: Array[Int], t: Array[Array[Double]], cols: String*) =
      ids.indices.map(i => (ids(i), t(i)(0), t(i)(1), t(i)(2))).toDF(cols: _*)
    SparkRun(muDf, trustDf(srcIds, out.phi, "source", "p1", "p2", "p3"),
      trustDf(wkrIds, out.psi, "worker", "q1", "q2", "q3"), truth, out.evals, out.delta, out.converged, out.objective)
  }

  /** Convenience: run the dataflow on a [[TdDataset]] + answer log and return
    * estimated truth values indexed by object (for metric computation and the
    * local-equivalence tests).
    */
  def runOnDataset(
      spark: SparkSession,
      ds: TdDataset,
      answers: AnswerLog,
      hyper: TdhHyper = TdhHyper(),
      maxIters: Int = Int.MaxValue,
  ): (SparkRun, Array[Int]) = {
    import spark.implicits._
    val recordsDf = ds.records.toDF()
    val answersDf = answers.toAnswers(ds.views).toDF()
    val run = this.run(spark, recordsDf, answersDf, ds.hierarchy, hyper, maxIters)
    val truthMap = run.truth.collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    val est = Array.tabulate(ds.numObjects)(o => truthMap.getOrElse(o, ds.views(o).cands(0)))
    (run, est)
  }
}
