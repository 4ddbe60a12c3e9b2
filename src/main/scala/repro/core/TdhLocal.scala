package repro.core

import repro.data.{AnswerLog, ObjectView}

import scala.collection.mutable

/** Reference implementation of the TDH EM algorithm (§3.2, Figure 4).
  *
  * This is the exact math of the paper on the compiled [[ObjectView]]
  * substrate; [[TdhSpark]] expresses the same updates as DataFrame dataflow
  * and is tested for equivalence against this implementation. The
  * crowdsourcing round loops (Table 4) call this version because they re-run
  * inference hundreds of times.
  *
  * Each run first compiles its inputs into dense arrays: sources and workers
  * get dense ids in order of first appearance, every record and answer is
  * stored by that id, and φ, ψ, their accumulators and the f-sums are
  * allocated once. An EM iteration then allocates nothing.
  */
object TdhLocal {

  /** Run MAP-EM until max |Δμ| ≤ `hyper.tol` or `hyper.maxIters` iterations,
    * whichever comes first; the result says which.
    *
    * @param views    compiled per-object candidate structures
    * @param answers  crowdsourcing answers accumulated so far (may be empty)
    */
  def run(views: Array[ObjectView], answers: AnswerLog, hyper: TdhHyper = TdhHyper()): TdhResult =
    new Em(views, compile(views, answers), hyper).run()

  /** The claims of one run by dense actor id. Object o's records are
    * recSrc[recOff(o), recOff(o + 1)) (candidate indices stay in its view),
    * its answers ansWkr/ansVal[ansOff(o), ansOff(o + 1)); srcIds/wkrIds map a
    * dense id back to the source/worker id.
    */
  private final class Layout(
      val srcIds: Array[Int],
      val wkrIds: Array[Int],
      val recOff: Array[Int],
      val recSrc: Array[Int],
      val ansOff: Array[Int],
      val ansWkr: Array[Int],
      val ansVal: Array[Int],
  )

  /** Dense ids in order of first appearance, records before answers. */
  private def compile(views: Array[ObjectView], answers: AnswerLog): Layout = {
    val nObj = views.length
    val srcDense = mutable.HashMap.empty[Int, Int]
    val wkrDense = mutable.HashMap.empty[Int, Int]
    val srcIds = mutable.ArrayBuffer.empty[Int]
    val wkrIds = mutable.ArrayBuffer.empty[Int]
    val recOff = new Array[Int](nObj + 1)
    val ansOff = new Array[Int](nObj + 1)
    val recSrc = new Array[Int](views.iterator.map(_.nRecords).sum)
    val ansWkr = mutable.ArrayBuffer.empty[Int]
    val ansVal = mutable.ArrayBuffer.empty[Int]
    var o = 0
    while (o < nObj) {
      val view = views(o)
      var r = 0
      while (r < view.nRecords) {
        val s = view.srcIds(r)
        recSrc(recOff(o) + r) = srcDense.getOrElseUpdate(s, { srcIds += s; srcIds.size - 1 })
        r += 1
      }
      recOff(o + 1) = recOff(o) + view.nRecords
      answers.answersFor(o).foreach { case (w, u) =>
        ansWkr += wkrDense.getOrElseUpdate(w, { wkrIds += w; wkrIds.size - 1 })
        ansVal += u
      }
      ansOff(o + 1) = ansWkr.size
      o += 1
    }
    new Layout(srcIds.toArray, wkrIds.toArray, recOff, recSrc, ansOff, ansWkr.toArray, ansVal.toArray)
  }

  /** One MAP-EM run over a compiled [[Layout]]. The constructor allocates all
    * state; loops live in methods, where the JIT compiles them.
    */
  private final class Em(views: Array[ObjectView], layout: Layout, hyper: TdhHyper) {
    import layout._
    private val nObj = views.length
    private val gm1 = hyper.gamma - 1.0
    private val nSrc = srcIds.length
    private val nWkr = wkrIds.length

    // --- state and scratch, allocated once per run ---------------------------
    private val claimsPerSource = new Array[Int](nSrc)
    recSrc.foreach(s => claimsPerSource(s) += 1)
    private val claimsPerWorker = new Array[Int](nWkr)
    ansWkr.foreach(w => claimsPerWorker(w) += 1)

    // μ⁰: smoothed vote share; φ⁰ = α/Σα; ψ⁰ = β/Σβ.
    private val mu = Array.tabulate(nObj) { o =>
      val v = views(o)
      val ansCount = new Array[Int](v.nCands)
      var a = ansOff(o)
      while (a < ansOff(o + 1)) { ansCount(ansVal(a)) += 1; a += 1 }
      val den = v.nRecords + (ansOff(o + 1) - ansOff(o)) + v.nCands * gm1
      Array.tabulate(v.nCands)(j => (v.srcCount(j) + ansCount(j) + gm1) / den)
    }
    private val phi = {
      val aSum = hyper.alphaArr.sum
      Array.fill(nSrc)(hyper.alphaArr.map(_ / aSum))
    }
    private val psi = {
      val bSum = hyper.betaArr.sum
      Array.fill(nWkr)(hyper.betaArr.map(_ / bSum))
    }
    private val phiAcc = Array.fill(nSrc)(new Array[Double](3))
    private val psiAcc = Array.fill(nWkr)(new Array[Double](3))
    private val fSum = views.map(v => new Array[Double](v.nCands))
    private val muNum = views.map(v => new Array[Double](v.nCands))
    private val muDen = new Array[Double](nObj)
    private val p = new Array[Double](views.iterator.map(_.nCands).maxOption.getOrElse(0))

    def run(): TdhResult = {
      var iter = 0
      var delta = Double.MaxValue
      while (iter < hyper.maxIters && delta > hyper.tol) {
        phiAcc.foreach(java.util.Arrays.fill(_, 0.0))
        psiAcc.foreach(java.util.Arrays.fill(_, 0.0))
        fSum.foreach(java.util.Arrays.fill(_, 0.0))

        var o = 0
        while (o < nObj) {
          val view = views(o)
          val muO = mu(o)

          // E-step over source claims (f_{o,s}^v and g_{o,s}^t of Figure 4)
          var r = 0
          while (r < view.nRecords) {
            val s = recSrc(recOff(o) + r)
            accumulate(view, muO, view.srcVals(r), fSum(o), phiAcc(s), phi(s), worker = false)
            r += 1
          }
          // E-step over worker answers (f_{o,w}^v and g_{o,w}^t)
          var a = ansOff(o)
          while (a < ansOff(o + 1)) {
            val w = ansWkr(a)
            accumulate(view, muO, ansVal(a), fSum(o), psiAcc(w), psi(w), worker = true)
            a += 1
          }

          o += 1
        }

        // M-step: Eq. (9) for μ, Eq. (10) for φ, Eq. (11) for ψ.
        delta = 0.0
        o = 0
        while (o < nObj) {
          val view = views(o)
          val den = view.nRecords + (ansOff(o + 1) - ansOff(o)) + view.nCands * gm1
          muDen(o) = den
          var j = 0
          while (j < view.nCands) {
            val num = fSum(o)(j) + gm1
            muNum(o)(j) = num
            val next = num / den
            delta = math.max(delta, math.abs(next - mu(o)(j)))
            mu(o)(j) = next
            j += 1
          }
          o += 1
        }
        mStep(phi, phiAcc, claimsPerSource, hyper.alphaArr, hyper.alphaDen)
        mStep(psi, psiAcc, claimsPerWorker, hyper.betaArr, hyper.betaDen)
        iter += 1
      }

      val truthIdx = Array.tabulate(nObj)(o => TdhProb.argmaxTruth(views(o), mu(o)))
      TdhResult(mu, muNum, muDen,
        srcIds.indices.map(i => srcIds(i) -> phi(i)).toMap,
        wkrIds.indices.map(i => wkrIds(i) -> psi(i)).toMap,
        truthIdx, iter, delta, delta <= hyper.tol)
    }

    /** Eq. (10)/(11): the MAP trust update of every actor, in place. */
    private def mStep(trust: Array[Array[Double]], acc: Array[Array[Double]], claims: Array[Int],
        prior: Array[Double], priorDen: Double): Unit = {
      var i = 0
      while (i < trust.length) {
        val den = claims(i) + priorDen
        var t = 0
        while (t < 3) { trust(i)(t) = math.max(1e-9, (acc(i)(t) + prior(t) - 1) / den); t += 1 }
        i += 1
      }
    }

    /** E-step contribution of one claim `u`:
      * adds f^v (the truth posterior given this claim) into `fAcc` and the
      * relationship-type posterior g^t into `gAcc`. The claim likelihood is
      * [[TdhProb.pWkr]] for a worker answer, [[TdhProb.pSrc]] otherwise.
      *
      * For o ∉ O_H and u = v the type (exact vs generalized) is unobservable —
      * the responsibility splits proportionally to (trust(0), trust(1)), which
      * is the exact E-step for the Eq. (2)/(4) likelihood.
      */
    private def accumulate(
        view: ObjectView,
        muO: Array[Double],
        u: Int,
        fAcc: Array[Double],
        gAcc: Array[Double],
        trust: Array[Double],
        worker: Boolean,
    ): Unit = {
      val n = view.nCands
      var z = 0.0
      var v = 0
      while (v < n) {
        val pClaim = if (worker) TdhProb.pWkr(view, trust, u, v) else TdhProb.pSrc(view, trust, u, v)
        p(v) = pClaim * muO(v); z += p(v); v += 1
      }
      if (z <= 0) return // claim impossible under current params; no responsibility
      v = 0
      while (v < n) {
        val f = p(v) / z
        fAcc(v) += f
        if (view.inOH) {
          gAcc(TdhProb.relType(view, u, v) - 1) += f
        } else if (u == v) {
          val t12 = trust(0) + trust(1)
          if (t12 > 0) { gAcc(0) += f * trust(0) / t12; gAcc(1) += f * trust(1) / t12 }
        } else gAcc(2) += f
        v += 1
      }
    }
  }
}
