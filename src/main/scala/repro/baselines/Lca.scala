package repro.baselines

import repro.core.TdhProb
import repro.data.{AnswerLog, ClaimTable, ObjectView}

/** GuessLCA (Pasternack & Roth, WWW 2013): each source/worker has an honesty
  * parameter θ; an honest claim is the truth, a dishonest one is a "guess"
  * drawn from the empirical popularity of the other candidate values.
  *
  * EM: μ_{o,v} ∝ Π_claims [θ if claim = v else (1−θ)·guess_o(claim|v)];
  * θ = smoothed expected fraction of exactly-correct claims.
  */
final class LcaInference extends TruthInference {
  val name = "LCA"
  private val MaxIters = 50
  private val Tol = 1e-6

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState = {
    val claims = ClaimTable(views, answers)
    val nObj = views.length
    // popularity of each candidate among all claims on its object
    val popularity = Array.tabulate(nObj) { o =>
      val cnt = claims.votes(o).map(_.toDouble)
      val tot = math.max(1.0, cnt.sum)
      cnt.map(c => math.max(c / tot, 1e-6))
    }
    // guess_o(u|v): popularity renormalized over candidates != v
    def guess(o: Int, u: Int, v: Int): Double = {
      val pop = popularity(o)
      val z = 1.0 - pop(v)
      if (u == v || z <= 1e-9) 1e-9 else pop(u) / z
    }

    val theta = Array.fill(claims.nActors)(0.8) // honesty by actor
    val claimCount = claims.claimsPerActor

    val mu = Array.tabulate(nObj)(o => Array.fill(views(o).nCands)(1.0 / views(o).nCands))
    var iter = 0
    var delta = Double.MaxValue
    while (iter < MaxIters && delta > Tol) {
      val thetaAcc = new Array[Double](claims.nActors)
      delta = 0.0
      for (o <- 0 until nObj) {
        val n = views(o).nCands
        val logMu = new Array[Double](n)
        claims.foreachClaim(o) { (a, u) =>
          val th = theta(a)
          var v = 0
          while (v < n) {
            logMu(v) += math.log(if (u == v) math.max(th, 1e-9) else math.max((1 - th) * guess(o, u, v), 1e-12))
            v += 1
          }
        }
        delta = math.max(delta, TruthInference.softmaxInto(logMu, mu(o)))
        // E contribution to honesty: posterior that each claim is exact
        claims.foreachClaim(o)((a, u) => thetaAcc(a) += mu(o)(u))
      }
      for (a <- theta.indices) theta(a) = (thetaAcc(a) + 1.0) / (claimCount(a) + 2.0) // Beta(1,1) smoothing
      iter += 1
    }

    val truth = Array.tabulate(nObj)(o => TdhProb.argmaxTruth(views(o), mu(o)))
    TruthInference.uniformState(views, mu, truth, claims.byWorker(theta(_)))
  }
}
