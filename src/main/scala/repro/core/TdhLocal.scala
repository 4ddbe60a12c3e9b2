package repro.core

import repro.data.{AnswerLog, ClaimTable, ObjectView}

/** Reference implementation of the TDH EM algorithm (§3.2, Figure 4).
  *
  * This is the exact math of the paper on the compiled [[ObjectView]]
  * substrate, run by [[EmDriver]] with μ held in arrays. The crowdsourcing
  * round loops (Table 4) call this version because they re-run inference
  * hundreds of times; [[TdhSpark]] runs the same driver and per-object
  * [[TdhLocal.Kernel]] on object partitions and is tested for equivalence
  * against this implementation.
  *
  * Each run first compiles its inputs into a [[ClaimTable]] (dense source and
  * worker ids, flat per-object claim arrays); μ, φ, ψ and their accumulators
  * are arrays allocated once.
  * An EM map evaluation then allocates nothing per object or per claim.
  */
object TdhLocal {

  /** Run MAP-EM through [[EmDriver]] (SQUAREM-accelerated) until one map
    * evaluation moves μ by at most `hyper.tol`, or for `hyper.maxIters` map
    * evaluations; the result says which.
    *
    * @param views    compiled per-object candidate structures
    * @param answers  crowdsourcing answers accumulated so far (may be empty)
    * @param init     a previous result on the same views to start from (§4.2):
    *                 its μ per object and its φ/ψ per actor id; actors it does
    *                 not know start at the prior mean. Cold start if empty.
    */
  def run(views: Array[ObjectView], answers: AnswerLog, hyper: TdhHyper = TdhHyper(),
      init: Option[TdhResult] = None): TdhResult =
    em(views, answers, hyper, init, accelerate = true)._1

  /** One EM run and the driver's record of it; plain EM (each iterate the map
    * of the previous one) unless `accelerate`.
    */
  private[core] def em(views: Array[ObjectView], answers: AnswerLog, hyper: TdhHyper, init: Option[TdhResult],
      accelerate: Boolean): (TdhResult, EmDriver.Outcome) = {
    val claims = ClaimTable(views, answers)
    val kernel = new Kernel(claims, hyper)
    val mu0 = init match {
      case Some(prev) =>
        require(prev.mu.length == views.length && views.indices.forall(o => prev.mu(o).length == views(o).nCands),
          "init must be a result on the same views")
        prev.mu.map(_.clone)
      case None => Array.tabulate(views.length)(kernel.initMu)
    }
    val mu = new LocalMu(kernel, views, mu0)
    val out = EmDriver.run(mu, hyper, claims.claimsPerSource, claims.claimsPerWorker,
      EmDriver.startTrust(claims.srcIds, hyper.alphaArr, init.map(_.phi)),
      EmDriver.startTrust(claims.wkrIds, hyper.betaArr, init.map(_.psi)), hyper.maxIters, accelerate)
    val muOut = mu.mu(out.slot)
    val truthIdx = Array.tabulate(views.length)(o => TdhProb.argmaxTruth(views(o), muOut(o)))
    val res = TdhResult(muOut, mu.num(out.slot), Array.tabulate(views.length)(kernel.den),
      claims.srcIds.zip(out.phi).toMap, claims.wkrIds.zip(out.psi).toMap, truthIdx, out.evals, out.delta, out.converged, out.objective)
    (res, out)
  }

  /** μ of a local run: [[EmDriver.Slots]] arrays per object, and the Eq. (9)
    * numerators N of the evaluation that wrote each slot.
    */
  private final class LocalMu(kernel: Kernel, views: Array[ObjectView], mu0: Array[Array[Double]]) extends MuBackend {
    val mu: Array[Array[Array[Double]]] =
      Array.tabulate(EmDriver.Slots)(s => if (s == 0) mu0 else views.map(v => new Array[Double](v.nCands)))
    val num: Array[Array[Array[Double]]] = Array.fill(EmDriver.Slots)(views.map(v => new Array[Double](v.nCands)))

    def eval(e: MapEval, phi: Array[Array[Double]], psi: Array[Array[Double]],
        phiAcc: Array[Array[Double]], psiAcc: Array[Array[Double]]): EvalStats =
      kernel.eval(e, mu, mu, num(e.out), phi, psi, phiAcc, psiAcc)
  }

  /** Eq. (10)/(11): the MAP trust update of every actor, in place. */
  private[core] def mStep(trust: Array[Array[Double]], acc: Array[Array[Double]], claims: Array[Int],
      prior: Array[Double], priorDen: Double): Unit = {
    var i = 0
    while (i < trust.length) {
      val den = claims(i) + priorDen
      var t = 0
      while (t < 3) { trust(i)(t) = math.max(1e-9, (acc(i)(t) + prior(t) - 1) / den); t += 1 }
      i += 1
    }
  }

  /** The per-object body of an EM iteration over a [[ClaimTable]]: object
    * o's E-step, then its Eq. (9) update of μ_o. [[TdhLocal]] and [[TdhSpark]]
    * both run EM through it. Updating μ_o right after o's E-step is exact:
    * f-sums of o depend only on μ_o and on φ/ψ, which an iteration holds fixed.
    * `p`, `f` and `logPost` are scratch, so an instance serves one thread.
    */
  private[core] final class Kernel(claims: ClaimTable, hyper: TdhHyper) {
    import claims._
    private val gm1 = hyper.gamma - 1.0
    private val maxCands = views.iterator.map(_.nCands).maxOption.getOrElse(0)
    private val p = new Array[Double](maxCands)
    private val f = new Array[Double](maxCands)
    /** Σ over the objects stepped since it was zeroed of their log-posterior terms. */
    private var logPost = 0.0

    /** One map evaluation `e` over this kernel's objects: reads μ slots from
      * `cur` and writes them into `next` (the same store in a local run; in a
      * Spark partition a copy with fresh arrays in the slots `e` writes), N of
      * the output into `num(o)`.
      */
    def eval(e: MapEval, cur: Array[Array[Array[Double]]], next: Array[Array[Array[Double]]],
        num: Array[Array[Double]], phi: Array[Array[Double]], psi: Array[Array[Double]],
        phiAcc: Array[Array[Double]], psiAcc: Array[Array[Double]]): EvalStats = {
      logPost = 0.0
      var delta = 0.0
      var r2 = 0.0
      var v2 = 0.0
      var o = 0
      while (o < views.length) {
        if (e.phase == 2) EmDriver.extrapolate(cur(e.s0)(o), cur(e.in)(o), cur(e.s2)(o), e.alpha, next(e.in)(o))
        delta = math.max(delta, step(o, next(e.in)(o), next(e.out)(o), num(o), phi, psi, phiAcc, psiAcc))
        if (e.phase == 1) {
          r2 += EmDriver.sqStep(cur(e.s0)(o), cur(e.in)(o), next(e.out)(o))
          v2 += EmDriver.sqCurvature(cur(e.s0)(o), cur(e.in)(o), next(e.out)(o))
        }
        o += 1
      }
      EvalStats(delta, logPost, r2, v2)
    }

    /** D_o, the Eq. (9) denominator: o's records and answers plus |V_o|(γ − 1). */
    def den(o: Int): Double = views(o).nRecords + (ansOff(o + 1) - ansOff(o)) + views(o).nCands * gm1

    /** μ⁰_o: the smoothed vote share over o's records and answers. */
    def initMu(o: Int): Array[Double] = {
      val d = den(o)
      votes(o).map(c => (c + gm1) / d)
    }

    /** Object o's E-step (f and g of Figure 4) under `muIn`, φ and ψ, adding
      * the type posteriors of its claims into `phiAcc`/`psiAcc` by dense actor
      * id; then Eq. (9): N_{o,v} into `num`, μ_o into `muOut` (which may be
      * `muIn`). Adds o's log-posterior terms under `muIn` into `logPost`: Σ log z
      * over its claims (z = P(claim), the Eq. (6) marginal) and
      * (γ − 1) Σ_v log μ_o(v). Returns max_v |Δμ_o(v)|.
      */
    def step(o: Int, muIn: Array[Double], muOut: Array[Double], num: Array[Double],
        phi: Array[Array[Double]], psi: Array[Array[Double]],
        phiAcc: Array[Array[Double]], psiAcc: Array[Array[Double]]): Double = {
      val view = views(o)
      java.util.Arrays.fill(f, 0, view.nCands, 0.0)
      // Π z over the claims and Π_v μ_o(v) are taken as products, with a log
      // only where a product could underflow
      var zProd = 1.0
      // E-step over source claims (f_{o,s}^v and g_{o,s}^t of Figure 4)
      var r = 0
      while (r < view.nRecords) {
        val s = recSrc(recOff(o) + r)
        zProd = times(zProd, accumulate(view, muIn, view.srcVals(r), phiAcc(s), phi(s), worker = false), 1.0)
        r += 1
      }
      // E-step over worker answers (f_{o,w}^v and g_{o,w}^t)
      var a = ansOff(o)
      while (a < ansOff(o + 1)) {
        val w = ansWkr(a)
        zProd = times(zProd, accumulate(view, muIn, ansVal(a), psiAcc(w), psi(w), worker = true), 1.0)
        a += 1
      }
      logPost += math.log(zProd)
      if (gm1 != 0.0) {
        var muProd = 1.0
        var v = 0
        while (v < view.nCands) { muProd = times(muProd, muIn(v), gm1); v += 1 }
        logPost += gm1 * math.log(muProd)
      }
      // M-step: Eq. (9) for μ_o
      val d = den(o)
      var delta = 0.0
      var j = 0
      while (j < view.nCands) {
        val n = f(j) + gm1
        num(j) = n
        val next = n / d
        delta = math.max(delta, math.abs(next - muIn(j)))
        muOut(j) = next
        j += 1
      }
      delta
    }

    /** E-step contribution of one claim `u`:
      * adds f^v (the truth posterior given this claim) into `f` and the
      * relationship-type posterior g^t into `gAcc`; returns the claim's
      * probability z (1 for an impossible claim, which gets no responsibility). The claim likelihood is
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
        gAcc: Array[Double],
        trust: Array[Double],
        worker: Boolean,
    ): Double = {
      val n = view.nCands
      var z = 0.0
      var v = 0
      while (v < n) {
        val pClaim = if (worker) TdhProb.pWkr(view, trust, u, v) else TdhProb.pSrc(view, trust, u, v)
        p(v) = pClaim * muO(v); z += p(v); v += 1
      }
      if (z <= 0) return 1.0 // claim impossible under current params; no responsibility
      v = 0
      while (v < n) {
        val fv = p(v) / z
        f(v) += fv
        if (view.inOH) {
          gAcc(TdhProb.relType(view, u, v) - 1) += fv
        } else if (u == v) {
          val t12 = trust(0) + trust(1)
          if (t12 > 0) { gAcc(0) += fv * trust(0) / t12; gAcc(1) += fv * trust(1) / t12 }
        } else gAcc(2) += fv
        v += 1
      }
      z
    }

    /** prod · x, for x > 0. Where the product gets small, `weight` times its
      * log goes into `logPost` and the product restarts at 1.
      */
    private def times(prod: Double, x: Double, weight: Double): Double = {
      val p = prod * x
      if (p > 1e-200) p else { logPost += weight * math.log(p); 1.0 }
    }
  }
}
