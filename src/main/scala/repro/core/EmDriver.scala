package repro.core

import scala.collection.mutable

/** One evaluation of the EM map F on μ: μ[out] := F_μ(μ[in]) on every
  * object, where μ[s] is slot s of the backend's μ store. In a SQUAREM cycle
  * over (θ0, θ1, θ2) the evaluation has a phase:
  *  - 0: plain (θ1 = F(θ0));
  *  - 1: θ2 = F(θ1), with in = θ1's slot, out = θ2's slot and `s0` θ0's slot;
  *    also sums the μ parts of ‖θ1 − θ0‖² and ‖θ2 − 2θ1 + θ0‖²;
  *  - 2: first overwrites μ[in] (θ1) with the projected extrapolation θ′ of
  *    (μ[s0], μ[in], μ[s2]) by step length `alpha`, then maps θ′.
  */
private[core] final case class MapEval(in: Int, out: Int, phase: Int = 0, s0: Int = -1, s2: Int = -1,
    alpha: Double = 0.0)

/** What one map evaluation reports over its objects: max |Δμ|, the μ part of
  * the MAP log-posterior of its input (Σ log z over the claims plus the
  * (γ − 1) Σ log μ prior) and, in phase 1, the μ parts of ‖r‖² and ‖v‖².
  */
private[core] final case class EvalStats(delta: Double, logPost: Double, r2: Double, v2: Double) {
  def +(o: EvalStats): EvalStats = EvalStats(math.max(delta, o.delta), logPost + o.logPost, r2 + o.r2, v2 + o.v2)
}

/** Where an EM run keeps μ ([[EmDriver.Slots]] copies of it per object): an
  * array per object in [[TdhLocal]], a slot of each immutable partition in
  * [[TdhSpark]]. `eval` adds the type sums of its E-step into the zeroed
  * `phiAcc`/`psiAcc`, indexed like `phi`/`psi`.
  */
private[core] trait MuBackend {
  def eval(e: MapEval, phi: Array[Array[Double]], psi: Array[Array[Double]],
      phiAcc: Array[Array[Double]], psiAcc: Array[Array[Double]]): EvalStats
}

/** The one MAP-EM loop of TDH, shared by [[TdhLocal]] and [[TdhSpark]]. It
  * holds φ/ψ and runs the map F = (E-step and Eq. (9) on every object, then
  * Eqs. (10)/(11)) through a [[MuBackend]] that holds μ.
  *
  * Stopping rule: stop as soon as one map evaluation moves μ by at most
  * `tol` (max |Δμ|), or after `maxEvals` evaluations, rejected ones counted.
  *
  * Acceleration: SQUAREM with the S3 step length (Varadhan & Roland, Scand. J.
  * Stat. 2008). Each cycle maps θ1 = F(θ0) and θ2 = F(θ1), extrapolates
  * θ′ = θ0 − 2αr + α²v with r = θ1 − θ0, v = θ2 − 2θ1 + θ0 and
  * α = min(−1, −‖r‖/‖v‖), projects θ′ back (rows clipped at [[Floor]] and
  * renormalised) and maps it. If the log-posterior of θ′ is below that of θ1,
  * the result of mapping θ′ is discarded and the next cycle starts from θ2,
  * so the objective at cycle starts never goes down (up to rounding). The
  * returned iterate is always the output of a map evaluation.
  */
private[core] object EmDriver {

  /** μ copies a backend keeps per object: θ0, θ1/θ′, θ2 and F(θ′). */
  val Slots = 4
  /** Lower bound of an extrapolated μ, φ or ψ entry (the M-step's φ floor). */
  val Floor = 1e-9

  /** One map evaluation as the driver saw it: its phase, the log-posterior of
    * its input and whether its output was kept.
    */
  final case class Step(phase: Int, objective: Double, kept: Boolean)

  /** @param slot       μ slot of the returned iterate
    * @param objective  log-posterior of the input of the evaluation that
    *                   produced the returned iterate (NaN if none ran)
    */
  final case class Outcome(
      slot: Int,
      phi: Array[Array[Double]],
      psi: Array[Array[Double]],
      evals: Int,
      delta: Double,
      converged: Boolean,
      objective: Double,
      steps: IndexedSeq[Step],
  )

  /** The starting trust of each actor id: its row in `previous` (a copy), or
    * the prior mean for actors that `previous` does not know.
    */
  def startTrust(ids: Array[Int], prior: Array[Double], previous: Option[Map[Int, Array[Double]]]): Array[Array[Double]] = {
    val mean = prior.map(_ / prior.sum)
    ids.map(id => previous.flatMap(_.get(id)).getOrElse(mean).clone)
  }

  /** Runs EM from μ in slot 0 of `mu` and from `phi0`/`psi0`; plain EM unless
    * `accelerate`.
    */
  def run(mu: MuBackend, hyper: TdhHyper, claimsPerSource: Array[Int], claimsPerWorker: Array[Int],
      phi0: Array[Array[Double]], psi0: Array[Array[Double]], maxEvals: Int, accelerate: Boolean): Outcome = {
    def slots(start: Array[Array[Double]]) =
      Array.tabulate(Slots)(s => if (s == 0) start else Array.fill(start.length)(new Array[Double](3)))
    val phi = slots(phi0)
    val psi = slots(psi0)
    val phiAcc = Array.fill(phi0.length)(new Array[Double](3))
    val psiAcc = Array.fill(psi0.length)(new Array[Double](3))
    val steps = mutable.ArrayBuffer.empty[Step]
    var evals = 0

    /** F(θ[e.in]) into θ[e.out]; returns the stats and the objective of θ[e.in]. */
    def eval(e: MapEval): (EvalStats, Double) = {
      phiAcc.foreach(java.util.Arrays.fill(_, 0.0))
      psiAcc.foreach(java.util.Arrays.fill(_, 0.0))
      val st = mu.eval(e, phi(e.in), psi(e.in), phiAcc, psiAcc)
      TdhLocal.mStep(phi(e.out), phiAcc, claimsPerSource, hyper.alphaArr, hyper.alphaDen)
      TdhLocal.mStep(psi(e.out), psiAcc, claimsPerWorker, hyper.betaArr, hyper.betaDen)
      evals += 1
      (st, st.logPost + logPrior(phi(e.in), hyper.alphaArr) + logPrior(psi(e.in), hyper.betaArr))
    }

    var res = 0 // slot of the current result
    var delta = Double.MaxValue
    var objective = Double.NaN
    def keep(phase: Int, slot: Int, ev: (EvalStats, Double)): Unit = {
      res = slot; delta = ev._1.delta; objective = ev._2
      steps += Step(phase, objective, kept = true)
    }
    def going = evals < maxEvals && delta > hyper.tol

    var cur = 0 // slot of θ0
    while (going) {
      if (!accelerate) {
        keep(0, cur ^ 1, eval(MapEval(cur, cur ^ 1)))
        cur ^= 1
      } else {
        val s1 = (cur + 1) % Slots
        val s2 = (cur + 2) % Slots
        val s3 = (cur + 3) % Slots
        keep(0, s1, eval(MapEval(cur, s1)))
        if (going) {
          val second = eval(MapEval(s1, s2, phase = 1, s0 = cur))
          keep(1, s2, second)
          if (going) {
            val trust = Seq(phi, psi)
            val r2 = second._1.r2 + trust.map(t => sumRows(t(cur), t(s1), t(s2), sqStep)).sum
            val v2 = second._1.v2 + trust.map(t => sumRows(t(cur), t(s1), t(s2), sqCurvature)).sum
            val alpha = if (v2 > 0) math.min(-1.0, -math.sqrt(r2 / v2)) else -1.0
            for (t <- trust; i <- t(cur).indices) extrapolate(t(cur)(i), t(s1)(i), t(s2)(i), alpha, t(s1)(i))
            val third = eval(MapEval(s1, s3, phase = 2, s0 = cur, s2 = s2, alpha = alpha))
            if (third._2 >= second._2) { keep(2, s3, third); cur = s3 }
            else { steps += Step(2, third._2, kept = false); cur = s2 }
          }
        }
      }
    }
    Outcome(res, phi(res), psi(res), evals, delta, delta <= hyper.tol, objective, steps.toIndexedSeq)
  }

  /** Σ_actor Σ_t (prior_t − 1) log trust_t: the Dirichlet prior of φ or ψ. */
  private def logPrior(trust: Array[Array[Double]], prior: Array[Double]): Double = {
    var lp = 0.0
    var t = 0
    while (t < 3) {
      val c = prior(t) - 1
      if (c != 0) {
        var s = 0.0
        var i = 0
        while (i < trust.length) { s += math.log(trust(i)(t)); i += 1 }
        lp += c * s
      }
      t += 1
    }
    lp
  }

  /** ‖θ1 − θ0‖² of one row. */
  def sqStep(t0: Array[Double], t1: Array[Double], t2: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < t0.length) { val d = t1(j) - t0(j); s += d * d; j += 1 }
    s
  }

  /** ‖θ2 − 2θ1 + θ0‖² of one row. */
  def sqCurvature(t0: Array[Double], t1: Array[Double], t2: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < t0.length) { val d = t2(j) - 2 * t1(j) + t0(j); s += d * d; j += 1 }
    s
  }

  private def sumRows(t0: Array[Array[Double]], t1: Array[Array[Double]], t2: Array[Array[Double]],
      f: (Array[Double], Array[Double], Array[Double]) => Double): Double = {
    var s = 0.0
    var i = 0
    while (i < t0.length) { s += f(t0(i), t1(i), t2(i)); i += 1 }
    s
  }

  /** dst := θ0 − 2α(θ1 − θ0) + α²(θ2 − 2θ1 + θ0) of one row, clipped below at
    * [[Floor]] and renormalised to sum 1. `dst` may be `t1`.
    */
  def extrapolate(t0: Array[Double], t1: Array[Double], t2: Array[Double], alpha: Double, dst: Array[Double]): Unit = {
    var sum = 0.0
    var j = 0
    while (j < t0.length) {
      val x = t0(j) - 2 * alpha * (t1(j) - t0(j)) + alpha * alpha * (t2(j) - 2 * t1(j) + t0(j))
      dst(j) = math.max(Floor, x)
      sum += dst(j)
      j += 1
    }
    j = 0
    while (j < t0.length) { dst(j) /= sum; j += 1 }
  }
}
