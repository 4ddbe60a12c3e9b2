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
    val m = logScore.max
    var z = 0.0
    var v = 0
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
