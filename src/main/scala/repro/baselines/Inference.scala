package repro.baselines

import repro.core.{TdhHyper, TdhLocal, TdhProb, TdhResult}
import repro.data.{AnswerLog, ClaimTable, ObjectView}

/** Result of one truth-inference run, in the shape the task-assignment
  * algorithms need.
  *
  * @param mu        per-object confidence distribution over candidates
  * @param truthIdx  chosen candidate index per object
  * @param answerProb answerProb(o, w, uIdx, vIdx) = P(worker w answers u |
  *                  truth is v) under this algorithm's worker model — used by
  *                  QASCA/EAI-style one-step Bayes updates
  * @param workerAcc estimated probability each known worker answers exactly
  *                  correctly (TDH's ψ_w,1; an accuracy estimate elsewhere)
  * @param muNum,muDen the N_{o,v} / D_o statistics of Eq. (9) when the
  *                  algorithm exposes them (TDH); EAI requires them
  * @param tdh       the TDH run behind this state, if any: the next crowd
  *                  round's EM starts from it
  * @param iterations EM iterations (TDH: map evaluations); 0 if not counted
  * @param converged whether that EM stopped at its tolerance
  */
final case class InferState(
    views: Array[ObjectView],
    mu: Array[Array[Double]],
    truthIdx: Array[Int],
    answerProb: (Int, Int, Int, Int) => Double,
    workerAcc: Map[Int, Double],
    muNum: Option[Array[Array[Double]]] = None,
    muDen: Option[Array[Double]] = None,
    tdh: Option[TdhResult] = None,
    iterations: Int = 0,
    converged: Boolean = false,
) {
  def truthValues: Array[Int] = Array.tabulate(truthIdx.length)(o => views(o).cands(truthIdx(o)))
}

/** A truth-inference algorithm over the shared [[ObjectView]] substrate. */
trait TruthInference {
  def name: String
  def infer(views: Array[ObjectView], answers: AnswerLog): InferState

  /** Inference after `previous`, this algorithm's state on the same views
    * under an earlier prefix of `answers`. TDH starts its EM from it (the
    * previous state of §4.2's incremental EM); the default ignores it.
    */
  def infer(views: Array[ObjectView], answers: AnswerLog, previous: InferState): InferState =
    infer(views, answers)
}

object TruthInference {
  /** A state under the symmetric-error answer model, for algorithms without
    * an explicit worker model: worker w answers correctly with probability
    * workerAcc(w) (0.75 if unknown), uniformly wrong otherwise.
    */
  def uniformState(views: Array[ObjectView], mu: Array[Array[Double]], truthIdx: Array[Int],
      workerAcc: Map[Int, Double]): InferState = {
    val answerProb = (o: Int, w: Int, u: Int, v: Int) => {
      val acc = workerAcc.getOrElse(w, 0.75)
      val n = views(o).nCands
      if (u == v) acc
      else if (n <= 1) 0.0
      else (1 - acc) / (n - 1)
    }
    InferState(views, mu, truthIdx, answerProb, workerAcc)
  }

  /** μ_o ← softmax(logScore) in place (overwriting logScore with exp terms);
    * returns max_v |Δμ_o(v)|.
    */
  private[baselines] def softmaxInto(logScore: Array[Double], mu: Array[Double]): Double = {
    var m = logScore(0) // max under Ordering.Double's total order, without boxing
    var v = 1
    while (v < logScore.length) { if (java.lang.Double.compare(m, logScore(v)) < 0) m = logScore(v); v += 1 }
    var z = 0.0
    v = 0
    while (v < logScore.length) { logScore(v) = math.exp(logScore(v) - m); z += logScore(v); v += 1 }
    var delta = 0.0
    v = 0
    while (v < logScore.length) {
      val next = logScore(v) / z
      delta = math.max(delta, math.abs(next - mu(v)))
      mu(v) = next
      v += 1
    }
    delta
  }
}

/** The EM loop of the softmax baselines (LCA, DOCS, MDC, LFC), which differ
  * only in their worker model (Zheng et al., PVLDB 2017). From a uniform μ,
  * each iteration sets μ_o ∝ Π_claims P(claim | truth) object by object and
  * feeds o's claims under the new μ_o to the model's statistics, then runs
  * the model's M-step. It stops after [[BaselineEm.MaxIters]] iterations or
  * once an iteration moves μ by at most [[BaselineEm.Tol]], and reports which.
  */
abstract class BaselineEm extends TruthInference {
  /** This algorithm's worker model over one run's claims. */
  private[baselines] def model(claims: ClaimTable): BaselineEm.Model

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState = {
    val claims = ClaimTable(views, answers)
    val m = model(claims)
    val mu = views.map(view => Array.fill(view.nCands)(1.0 / view.nCands))
    var iter = 0
    var delta = Double.MaxValue
    while (iter < BaselineEm.MaxIters && delta > BaselineEm.Tol) {
      delta = 0.0
      for (o <- views.indices) {
        val logMu = new Array[Double](views(o).nCands)
        claims.foreachClaim(o)((a, u) => m.addLogLik(o, a, u, logMu))
        delta = math.max(delta, TruthInference.softmaxInto(logMu, mu(o)))
        claims.foreachClaim(o)((a, u) => m.collect(o, a, u, mu(o)))
      }
      m.mStep()
      iter += 1
    }

    val truth = Array.tabulate(views.length)(o => TdhProb.argmaxTruth(views(o), mu(o)))
    TruthInference.uniformState(views, mu, truth, m.workerAcc).copy(iterations = iter, converged = delta <= BaselineEm.Tol)
  }
}

object BaselineEm {
  val MaxIters = 50
  val Tol = 1e-6

  /** A worker model over one run's claims. Its loops over candidates stay in
    * the model, so each is compiled for one model class.
    */
  trait Model {
    /** Adds log P(actor a claims u | truth v) to logMu(v) for each candidate v of object o. */
    def addLogLik(o: Int, a: Int, u: Int, logMu: Array[Double]): Unit
    /** Accumulates the statistics of actor a's claim u on object o under μ_o. */
    def collect(o: Int, a: Int, u: Int, mu: Array[Double]): Unit
    /** Re-estimates the parameters from the statistics, then clears them. */
    def mStep(): Unit
    def workerAcc: Map[Int, Double]
  }
}

/** The paper's TDH inference (§3) exposed through the common interface. */
final class TdhInference(hyper: TdhHyper = TdhHyper()) extends TruthInference {
  val name = "TDH"

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState =
    state(views, TdhLocal.run(views, answers, hyper))

  override def infer(views: Array[ObjectView], answers: AnswerLog, previous: InferState): InferState =
    state(views, TdhLocal.run(views, answers, hyper, previous.tdh))

  private def state(views: Array[ObjectView], res: TdhResult): InferState = {
    val bSum = hyper.betaArr.sum
    val defaultPsi = hyper.betaArr.map(_ / bSum)
    val psiOf = (w: Int) => res.psi.getOrElse(w, defaultPsi)
    InferState(
      views,
      res.mu,
      res.truthIdx,
      (o, w, u, v) => TdhProb.pWkr(views(o), psiOf(w), u, v),
      res.psi.map { case (w, p) => w -> p(0) },
      Some(res.muNum),
      Some(res.muDen),
      Some(res),
      res.iterations,
      res.converged,
    )
  }
}

/** VOTE baseline: the value with the highest claim frequency (records and
  * answers both count one vote); μ is the smoothed vote share.
  */
final class VoteInference extends TruthInference {
  val name = "VOTE"

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState = {
    val claims = ClaimTable(views, answers)
    val mu = Array.tabulate(views.length) { o =>
      val cnt = claims.votes(o)
      val tot = cnt.sum.toDouble
      cnt.map(_ / tot)
    }
    val truth = Array.tabulate(views.length)(o => TdhProb.argmaxTruth(views(o), mu(o)))
    TruthInference.uniformState(views, mu, truth, Map.empty)
  }
}
