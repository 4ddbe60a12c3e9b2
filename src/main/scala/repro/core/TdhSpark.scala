package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{AnswerLog, ObjectView, TdDataset}
import repro.hier.Hierarchy

/** TDH inference (§3) as object-partitioned EM on Spark — the distributed
  * form of [[TdhLocal]], running the same per-object [[TdhLocal.Kernel]].
  *
  * μ_o depends only on object o's claims, and φ/ψ are three sums per actor.
  * So records and answers are co-grouped by object into the session's default
  * parallelism, each partition compiles its objects' [[ObjectView]]s once from
  * a broadcast [[Hierarchy]], and an EM iteration is one job: every partition
  * maps its μ under broadcast φ/ψ to a new μ plus its per-actor type sums and
  * max |Δμ|. `run` folds the partial sums in partition order (so repeated
  * runs agree bit for bit), applies the shared Eq. (10)/(11) M-step and
  * broadcasts the result. μ never leaves its partition.
  *
  * Results match [[TdhLocal]] to float tolerance (see TdhSparkSpec).
  */
object TdhSpark {

  final case class SparkRun(
      mu: DataFrame, // (obj, v, mu)
      phi: DataFrame, // (source, p1, p2, p3)
      psi: DataFrame, // (worker, q1, q2, q3)
      truth: DataFrame, // (obj, truth)
      iterations: Int,
      finalDelta: Double = Double.NaN, // max |Δμ| of the last iteration (Double.MaxValue if none ran)
      converged: Boolean = false, // finalDelta reached the tolerance before the iteration cap
  )

  /** The objects of one partition with their claims compiled by partition-local
    * actor ids, and one EM iterate over them: μ, the per-actor type sums of the
    * E-step that produced it, and its max |Δμ|. Immutable: each iteration makes
    * a new Part, so a recomputed partition never starts from a later μ.
    *
    * @param rejected the first answer of the partition that does not fit its
    *                 object, as an error message
    */
  private final class Part(
      val views: Array[ObjectView],
      val layout: TdhLocal.Layout,
      val mu: Array[Array[Double]],
      val phiAcc: Array[Array[Double]],
      val psiAcc: Array[Array[Double]],
      val delta: Double,
      val rejected: Option[String],
  ) extends Serializable {

    /** One EM iteration under φ/ψ indexed by global actor id; srcIdx/wkrIdx map
      * this partition's actor ids to global ones.
      */
    def next(phi: Array[Array[Double]], psi: Array[Array[Double]],
        srcIdx: Array[Int], wkrIdx: Array[Int], hyper: TdhHyper): Part = {
      val kernel = new TdhLocal.Kernel(views, layout, hyper)
      val localPhi = srcIdx.map(phi)
      val localPsi = wkrIdx.map(psi)
      val nextPhiAcc = Array.fill(srcIdx.length)(new Array[Double](3))
      val nextPsiAcc = Array.fill(wkrIdx.length)(new Array[Double](3))
      val nextMu = views.map(v => new Array[Double](v.nCands))
      val num = new Array[Double](views.iterator.map(_.nCands).maxOption.getOrElse(0))
      var d = 0.0
      for (o <- views.indices)
        d = math.max(d, kernel.step(o, mu(o), nextMu(o), num, localPhi, localPsi, nextPhiAcc, nextPsiAcc))
      new Part(views, layout, nextMu, nextPhiAcc, nextPsiAcc, d, rejected)
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
      val layout = TdhLocal.compile(views, log)
      val kernel = new TdhLocal.Kernel(views, layout, hyper)
      new Part(views, layout, Array.tabulate(views.length)(kernel.initMu), Array.empty, Array.empty,
        Double.MaxValue, rejected)
    }
  }

  def run(
      spark: SparkSession,
      records: DataFrame, // (obj, source, value)
      answers: DataFrame, // (obj, worker, value)
      h: Hierarchy,
      hyper: TdhHyper = TdhHyper(),
      maxIters: Int = 30,
  ): SparkRun = {
    import spark.implicits._
    val sc = spark.sparkContext
    def byObj(df: DataFrame, actor: String): RDD[(Int, (Int, Int))] =
      df.select("obj", actor, "value").rdd.map(r => (r.getInt(0), (r.getInt(1), r.getInt(2))))
    val bcH = sc.broadcast(h)
    var state: RDD[Part] = byObj(records, "source")
      .cogroup(byObj(answers, "worker"), new HashPartitioner(sc.defaultParallelism))
      .mapPartitions(it => Iterator(Part.build(it, bcH.value, hyper)))
    state.localCheckpoint()

    // Ingestion: every partition's actors and claim counts, and the first
    // answer that does not fit its object.
    val ingested = state.map(p =>
      (p.layout.srcIds, p.layout.claimsPerSource, p.layout.wkrIds, p.layout.claimsPerWorker, p.rejected)).collect()
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
    val claimsPerSource = claims(srcIds.length, srcIdx, ingested.map(_._2))
    val claimsPerWorker = claims(wkrIds.length, wkrIdx, ingested.map(_._4))
    val bcIdx = sc.broadcast((srcIdx, wkrIdx))

    val phi = TdhLocal.priorMean(hyper.alphaArr, srcIds.length)
    val psi = TdhLocal.priorMean(hyper.betaArr, wkrIds.length)
    var iter = 0
    var delta = Double.MaxValue
    while (iter < maxIters && delta > hyper.tol) {
      // copies: mStep updates phi/psi in place, and a local-mode broadcast
      // hands tasks the very object that was broadcast
      val bcTrust = sc.broadcast((phi.map(_.clone), psi.map(_.clone)))
      val next = state.mapPartitionsWithIndex { (k, parts) =>
        val (ph, ps) = bcTrust.value
        val (si, wi) = bcIdx.value
        parts.map(_.next(ph, ps, si(k), wi(k), hyper))
      }
      next.localCheckpoint()
      val partials = next.map(p => (p.phiAcc, p.psiAcc, p.delta)).collect()
      // Spark warns that a locally checkpointed RDD cannot be recomputed once
      // unpersisted; nothing reads the previous iterate again.
      state.unpersist(blocking = false)
      state = next

      val phiAcc = Array.fill(srcIds.length)(new Array[Double](3))
      val psiAcc = Array.fill(wkrIds.length)(new Array[Double](3))
      delta = 0.0
      for (k <- partials.indices) {
        val (pa, qa, d) = partials(k)
        for (i <- pa.indices; t <- 0 until 3) phiAcc(srcIdx(k)(i))(t) += pa(i)(t)
        for (i <- qa.indices; t <- 0 until 3) psiAcc(wkrIdx(k)(i))(t) += qa(i)(t)
        delta = math.max(delta, d)
      }
      TdhLocal.mStep(phi, phiAcc, claimsPerSource, hyper.alphaArr, hyper.alphaDen)
      TdhLocal.mStep(psi, psiAcc, claimsPerWorker, hyper.betaArr, hyper.betaDen)
      iter += 1
    }

    val mu = state.flatMap(p => for (o <- p.views.indices; j <- 0 until p.views(o).nCands)
      yield (p.views(o).obj, p.views(o).cands(j), p.mu(o)(j))).toDF("obj", "v", "mu")
    val truth = state.flatMap(p => p.views.indices.map(o =>
      (p.views(o).obj, p.views(o).cands(TdhProb.argmaxTruth(p.views(o), p.mu(o)))))).toDF("obj", "truth")
    def trustDf(ids: Array[Int], t: Array[Array[Double]], cols: String*) =
      ids.indices.map(i => (ids(i), t(i)(0), t(i)(1), t(i)(2))).toDF(cols: _*)
    SparkRun(mu, trustDf(srcIds, phi, "source", "p1", "p2", "p3"), trustDf(wkrIds, psi, "worker", "q1", "q2", "q3"),
      truth, iter, delta, delta <= hyper.tol)
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
      maxIters: Int = 30,
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
