package repro.baselines

import repro.core.TdhProb
import repro.data.{AnswerLog, ClaimTable, ObjectView}

/** ASUMS (Beretta et al., WIMS 2016): the fixed-point Sums/Hubs-Authorities
  * scheme of Pasternack & Roth adapted to hierarchies — a claim on value u
  * also supports every candidate that generalizes u (u itself and its
  * ancestors), and the estimated truth is controlled by a granularity
  * threshold: the most specific candidate whose support reaches `threshold` ×
  * the maximum support of the object.
  *
  * The paper (§5.2, Fig. 5) highlights that ASUMS keeps one reliability score
  * t(s) per source and therefore under-estimates sources that generalize.
  */
final class AsumsInference(threshold: Double = 0.55) extends TruthInference {
  val name = "ASUMS"
  private val Iterations = 20

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState = {
    val claims = ClaimTable(views, answers)
    val nObj = views.length
    val nClaims = claims.claimsPerActor
    val trust = Array.fill(claims.nActors)(1.0)
    val belief = Array.tabulate(nObj)(o => Array.fill(views(o).nCands)(1.0))

    for (_ <- 1 to Iterations) {
      // B(v) = Σ_{claims u s.t. v generalizes u} T(actor)
      for (o <- 0 until nObj) {
        val b = belief(o)
        java.util.Arrays.fill(b, 0.0)
        claims.foreachClaim(o) { (a, j) =>
          val t = trust(a)
          b(j) += t
          views(o).anc(j).foreach(x => b(x) += t) // support propagates upward
        }
      }
      val bMax = math.max(1e-12, belief.iterator.flatMap(_.iterator).max)
      belief.foreach { arr => var i = 0; while (i < arr.length) { arr(i) /= bMax; i += 1 } }
      // T(actor) = mean belief of its claims, normalized by the max trust
      java.util.Arrays.fill(trust, 0.0)
      for (o <- 0 until nObj) claims.foreachClaim(o)((a, j) => trust(a) += belief(o)(j))
      for (a <- trust.indices) trust(a) /= nClaims(a)
      val tMax = math.max(1e-12, trust.max)
      for (a <- trust.indices) trust(a) /= tMax
    }

    // Truth: deepest candidate whose support >= threshold * max support.
    val truth = Array.tabulate(nObj) { o =>
      val view = views(o)
      val b = belief(o)
      val cut = threshold * b.max
      val eligible = (0 until view.nCands).filter(b(_) >= cut)
      eligible.maxBy(j => (view.candDepth(j), -j))
    }
    val mu = Array.tabulate(nObj) { o =>
      val b = belief(o)
      val z = math.max(1e-12, b.sum)
      b.map(_ / z)
    }
    TruthInference.uniformState(views, mu, truth, claims.byWorker(a => math.min(0.99, trust(a))))
  }
}
