package repro.baselines

import repro.core.TdhProb
import repro.data.{AnswerLog, ClaimTable, ObjectView}

/** CRH (Li et al., SIGMOD 2014): conflict resolution on heterogeneous data.
  *
  * The framework alternates (a) truths = weighted vote under the current
  * source weights and (b) weights w_s = −log(normalized loss of s). For
  * categorical data the loss is 0-1 against the current truth estimate.
  * (The numeric instantiation lives in [[repro.numeric.NumericAlgorithms]].)
  * It runs a fixed number of rounds and reports whether the last one moved μ
  * by at most [[BaselineEm.Tol]].
  */
final class CrhInference extends TruthInference {
  val name = "CRH"
  private val Iterations = 15

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState = {
    val claims = ClaimTable(views, answers)
    val nObj = views.length
    val weights = Array.fill(claims.nActors)(1.0)

    val mu = Array.tabulate(nObj)(o => new Array[Double](views(o).nCands))
    val truth = new Array[Int](nObj)
    var delta = Double.MaxValue
    for (_ <- 1 to Iterations) {
      // truths from weighted vote
      delta = 0.0
      for (o <- 0 until nObj) {
        val score = new Array[Double](views(o).nCands)
        claims.foreachClaim(o)((a, u) => score(u) += weights(a))
        var sum = 0.0
        var v = 0
        while (v < score.length) { sum += score(v); v += 1 }
        val z = math.max(1e-12, sum)
        v = 0
        while (v < score.length) {
          val next = score(v) / z
          delta = math.max(delta, math.abs(next - mu(o)(v)))
          mu(o)(v) = next
          v += 1
        }
        truth(o) = TdhProb.argmaxTruth(views(o), mu(o))
      }
      // weights from normalized 0-1 loss
      val loss = new Array[Double](claims.nActors)
      for (o <- 0 until nObj) claims.foreachClaim(o)((a, u) => if (u != truth(o)) loss(a) += 1.0)
      var lossSum = 0.0
      var a = 0
      while (a < loss.length) { lossSum += loss(a); a += 1 }
      val totalLoss = math.max(1e-9, lossSum)
      for (a <- weights.indices) {
        val norm = (loss(a) + 0.5) / (totalLoss + 0.5 * claims.nActors)
        weights(a) = -math.log(norm)
      }
    }

    // CRH has no worker accuracy model: every known worker gets 0.8 in the
    // uniform answer model (ME, the assigner Table 4 pairs it with, never
    // reads workerAcc).
    TruthInference.uniformState(views, mu, truth, claims.byWorker(_ => 0.8))
      .copy(iterations = Iterations, converged = delta <= BaselineEm.Tol)
  }
}

/** DART (Lin & Chen, PVLDB 2018), simplified to its domain-aware multi-truth
  * voting core (see DESIGN.md): per-domain source weights from expected
  * claim correctness, multi-truth output = every candidate whose normalized
  * support clears a low threshold — reproducing DART's reported high-recall /
  * low-precision profile.
  */
final class DartInference(domainOf: (Array[ObjectView], Int) => Int) {
  val name = "DART"
  private val Iterations = 10
  private val Threshold = 0.05

  def inferSets(views: Array[ObjectView], answers: AnswerLog): Array[Set[Int]] = {
    val claims = ClaimTable(views, answers)
    val nObj = views.length
    val (dom, nDom) = Domains.dense(views, domainOf)
    // weight and claim count of actor a in domain d at a * nDom + d
    val w = Array.fill(claims.nActors * nDom)(1.0)
    val n = new Array[Int](w.length)
    for (o <- 0 until nObj) claims.foreachClaim(o)((a, _) => n(a * nDom + dom(o)) += 1)

    val support = Array.tabulate(nObj)(o => new Array[Double](views(o).nCands))
    for (_ <- 1 to Iterations) {
      for (o <- 0 until nObj) {
        java.util.Arrays.fill(support(o), 0.0)
        claims.foreachClaim(o)((a, u) => support(o)(u) += w(a * nDom + dom(o)))
        val z = math.max(1e-12, support(o).max)
        var v = 0
        while (v < support(o).length) { support(o)(v) /= z; v += 1 }
      }
      val hit = new Array[Double](w.length)
      for (o <- 0 until nObj) claims.foreachClaim(o)((a, u) => hit(a * nDom + dom(o)) += support(o)(u))
      for (k <- w.indices) w(k) = (hit(k) + 1.0) / (n(k) + 2.0)
    }
    Array.tabulate(nObj) { o =>
      val v = views(o)
      (0 until v.nCands).filter(support(o)(_) >= Threshold).map(v.cands).toSet
    }
  }
}
