package repro.core

import repro.data.ObjectView

/** Hyperparameters of the TDH model (§3.1/§5.1).
  *
  * Defaults follow the paper: α = (3, 3, 2) because "correct values are more
  * frequent than wrong values for most of the sources"; every dimension of β
  * and γ is 2.
  *
  * `maxIters` and `tol` are the one stopping rule of [[EmDriver]], on every
  * path: stop when one map evaluation moves μ by at most `tol` (max |Δμ|), or
  * after `maxIters` map evaluations.
  */
final case class TdhHyper(
    alpha: (Double, Double, Double) = (3.0, 3.0, 2.0),
    beta: (Double, Double, Double) = (2.0, 2.0, 2.0),
    gamma: Double = 2.0,
    maxIters: Int = 100,
    tol: Double = 1e-6,
) {
  val alphaArr: Array[Double] = Array(alpha._1, alpha._2, alpha._3)
  val betaArr: Array[Double] = Array(beta._1, beta._2, beta._3)
  /** Σ_t (α_t − 1), the φ-update denominator constant in Eq. (10). */
  val alphaDen: Double = alphaArr.map(_ - 1).sum
  val betaDen: Double = betaArr.map(_ - 1).sum
}

/** The generative-model likelihood kernels of §3.1, shared by the EM
  * ([[TdhLocal]], [[TdhSpark]]) and, through `InferState.answerProb`, the
  * task-assignment quality measures ([[repro.assign.EaiAssigner]],
  * [[repro.assign.QascaAssigner]]).
  *
  * All probabilities are over candidate *indices* inside one [[ObjectView]].
  */
object TdhProb {

  /** Relationship C between claim u and a hypothetical truth v (Eq. of C_v):
    * 1 = exact, 2 = u is a generalized value of v (u ∈ G_o(v)), 3 = wrong.
    */
  def relType(view: ObjectView, uIdx: Int, vIdx: Int): Int = view.rel(uIdx * view.nCands + vIdx)

  /** P(v_o^s = u | v_o^* = v, φ_s) — Eq. (1) for o ∈ O_H, Eq. (2) otherwise. */
  def pSrc(view: ObjectView, phi: Array[Double], uIdx: Int, vIdx: Int): Double = {
    val n = view.nCands
    if (view.inOH) {
      val g = view.anc(vIdx).length
      relType(view, uIdx, vIdx) match {
        case 1 => phi(0)
        case 2 => phi(1) / g
        case _ => val rest = n - g - 1; if (rest <= 0) 0.0 else phi(2) / rest
      }
    } else {
      if (uIdx == vIdx) phi(0) + phi(1)
      else if (n <= 1) 0.0
      else phi(2) / (n - 1)
    }
  }

  /** Pop2(u | v): popularity of u among the source claims that are generalized
    * values of v (uniform fallback when no such source claim exists).
    */
  def pop2(view: ObjectView, uIdx: Int, vIdx: Int): Double = {
    val den = view.pop2den(vIdx)
    if (den > 0) view.srcCount(uIdx).toDouble / den
    else 1.0 / math.max(1, view.anc(vIdx).length)
  }

  /** Pop3(u | v): popularity of u among the source claims that are wrong
    * w.r.t. v (uniform fallback when no wrong source claim exists).
    */
  def pop3(view: ObjectView, uIdx: Int, vIdx: Int): Double = {
    val den = view.pop3den(vIdx)
    val restSize = view.nCands - 1 - view.anc(vIdx).length
    if (den > 0) view.srcCount(uIdx).toDouble / den
    else if (restSize > 0) 1.0 / restSize
    else 0.0
  }

  /** P(v_o^w = u | v_o^* = v, ψ_w) — Eq. (3) for o ∈ O_H, Eq. (4) otherwise. */
  def pWkr(view: ObjectView, psi: Array[Double], uIdx: Int, vIdx: Int): Double = {
    if (view.inOH) {
      relType(view, uIdx, vIdx) match {
        case 1 => psi(0)
        case 2 => psi(1) * pop2(view, uIdx, vIdx)
        case _ => psi(2) * pop3(view, uIdx, vIdx)
      }
    } else {
      if (uIdx == vIdx) psi(0) + psi(1)
      else psi(2) * pop3(view, uIdx, vIdx)
    }
  }

  /** Truth pick: argmax μ with ties broken toward the more specific candidate
    * (deeper node), then the smaller candidate index — Eq. (12).
    */
  def argmaxTruth(view: ObjectView, mu: Array[Double]): Int = {
    var best = 0
    var i = 1
    while (i < view.nCands) {
      val d = mu(i) - mu(best)
      if (d > 1e-12 || (math.abs(d) <= 1e-12 && view.candDepth(i) > view.candDepth(best))) best = i
      i += 1
    }
    best
  }
}

/** Output of a TDH inference run.
  *
  * @param mu     per-object confidence distribution over that object's candidates
  * @param muNum  N_{o,v}: the numerator of Eq. (9) in the map evaluation that
  *               produced `mu` (used by EAI)
  * @param muDen  D_o: the denominator of Eq. (9)
  * @param phi    per-source trustworthiness distribution
  * @param psi    per-worker trustworthiness distribution
  * @param truthIdx chosen candidate index per object
  * @param iterations EM map evaluations run, rejected SQUAREM steps included
  * @param finalDelta max |Δμ| of the evaluation that produced `mu`
  *                   (Double.MaxValue if none ran)
  * @param converged  whether `finalDelta` reached the tolerance before the
  *                   evaluation cap
  * @param objective  MAP log-posterior (the log-likelihood of all claims plus
  *                   the Dirichlet priors of μ, φ and ψ, up to a constant) of
  *                   the iterate that was mapped to `mu` (NaN if none ran)
  */
final case class TdhResult(
    mu: Array[Array[Double]],
    muNum: Array[Array[Double]],
    muDen: Array[Double],
    phi: Map[Int, Array[Double]],
    psi: Map[Int, Array[Double]],
    truthIdx: Array[Int],
    iterations: Int = 0,
    finalDelta: Double = Double.NaN,
    converged: Boolean = false,
    objective: Double = Double.NaN,
) {
  def truthValues(views: Array[ObjectView]): Array[Int] =
    Array.tabulate(truthIdx.length)(o => views(o).cands(truthIdx(o)))
}
