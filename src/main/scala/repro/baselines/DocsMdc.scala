package repro.baselines

import repro.core.TdhProb
import repro.data.{AnswerLog, ClaimTable, ObjectView}
import repro.hier.Hierarchy

import scala.collection.mutable

/** Shared accuracy-EM machinery: sources/workers have an accuracy parameter
  * (optionally per domain); a correct claim hits the truth, an incorrect one
  * is uniform over the remaining candidates.
  *
  * DOCS (Zheng et al., PVLDB 2016) is the domain-sensitive instance: the
  * paper's knowledge-base domains are substituted with the top-level branches
  * of the hierarchy (children of the root), see DESIGN.md. MDC (Li et al.,
  * WSDM 2017) is instantiated as the single-domain two-coin model — its
  * medical-symptom machinery has no counterpart in this data.
  */
abstract class AccuracyEmInference(domainOf: (Array[ObjectView], Int) => Int) extends TruthInference {
  private val MaxIters = 50

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState = {
    val claims = ClaimTable(views, answers)
    val nObj = views.length
    val (dom, nDom) = Domains.dense(views, domainOf)
    // accuracy and claim count of actor a in domain d at a * nDom + d
    val acc = Array.fill(claims.nActors * nDom)(0.8)
    val cnt = new Array[Int](claims.nActors * nDom)
    for (o <- 0 until nObj) claims.foreachClaim(o)((a, _) => cnt(a * nDom + dom(o)) += 1)

    val mu = Array.tabulate(nObj)(o => Array.fill(views(o).nCands)(1.0 / views(o).nCands))
    var iter = 0
    var delta = Double.MaxValue
    while (iter < MaxIters && delta > 1e-6) {
      val hit = new Array[Double](acc.length)
      delta = 0.0
      for (o <- 0 until nObj) {
        val n = views(o).nCands
        val logMu = new Array[Double](n)
        claims.foreachClaim(o) { (a, u) =>
          val q = acc(a * nDom + dom(o))
          var v = 0
          while (v < n) {
            val p = if (u == v) q else if (n <= 1) 1e-12 else (1 - q) / (n - 1)
            logMu(v) += math.log(math.max(p, 1e-12))
            v += 1
          }
        }
        delta = math.max(delta, TruthInference.softmaxInto(logMu, mu(o)))
        claims.foreachClaim(o)((a, u) => hit(a * nDom + dom(o)) += mu(o)(u))
      }
      for (k <- acc.indices) acc(k) = (hit(k) + 1.0) / (cnt(k) + 2.0)
      iter += 1
    }

    val truth = Array.tabulate(nObj)(o => TdhProb.argmaxTruth(views(o), mu(o)))
    // Worker accuracy: claim-weighted mean over the domains it claims in.
    val workerAcc = claims.byWorker { a =>
      val ks = (a * nDom until (a + 1) * nDom).filter(cnt(_) > 0)
      ks.map(k => acc(k) * cnt(k)).sum / math.max(1, ks.map(cnt).sum)
    }
    TruthInference.uniformState(views, mu, truth, workerAcc)
  }
}

object Domains {
  /** Domain of an object: the dominant top-level branch (child of root) among
    * its claimed values; 0 if none resolves.
    */
  def topLevelDomain(h: Hierarchy)(views: Array[ObjectView], o: Int): Int = {
    val view = views(o)
    val counts = mutable.HashMap.empty[Int, Int].withDefaultValue(0)
    view.srcVals.foreach { j =>
      val v = view.cands(j)
      val top = (v :: h.ancestors(v)).filter(n => n != h.root && h.depth(n) == 1)
      top.headOption.foreach(counts(_) += 1)
    }
    if (counts.isEmpty) 0 else counts.toSeq.minBy { case (d, c) => (-c, d) }._1
  }

  /** Each object's domain under `domainOf` as a dense index (in order of first
    * appearance), and the number of domains.
    */
  def dense(views: Array[ObjectView], domainOf: (Array[ObjectView], Int) => Int): (Array[Int], Int) = {
    val index = mutable.HashMap.empty[Int, Int]
    val dom = Array.tabulate(views.length)(o => index.getOrElseUpdate(domainOf(views, o), index.size))
    (dom, index.size)
  }
}

/** DOCS with hierarchy-derived domains. */
final class DocsInference(h: Hierarchy) extends AccuracyEmInference(Domains.topLevelDomain(h)) {
  val name = "DOCS"
}

/** MDC as the single-domain accuracy EM (see DESIGN.md for the substitution). */
final class MdcInference extends AccuracyEmInference((_, _) => 0) {
  val name = "MDC"
}
