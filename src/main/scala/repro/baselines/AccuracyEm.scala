package repro.baselines

import repro.data.{ClaimTable, ObjectView}
import repro.hier.Hierarchy

import scala.collection.mutable

/** The accuracy EM: each source/worker has an accuracy q (optionally per
  * domain), the smoothed expected fraction of its exactly-correct claims; a
  * wrong claim is uniform over the other n − 1 candidates (LCA: a guess).
  *
  * DOCS (Zheng et al., PVLDB 2016) is the domain-sensitive instance: the
  * paper's knowledge-base domains are substituted with the top-level branches
  * of the hierarchy (children of the root), see DESIGN.md. MDC (Li et al.,
  * WSDM 2017) is instantiated as the single-domain two-coin model — its
  * medical-symptom machinery has no counterpart in this data.
  */
abstract class AccuracyEmInference(domainOf: (Array[ObjectView], Int) => Int) extends BaselineEm {
  /** Whether a wrong claim is LCA's popularity guess rather than uniform. */
  protected def guessesByPopularity: Boolean = false

  private[baselines] def model(claims: ClaimTable): BaselineEm.Model = {
    val (dom, nDom) = Domains.dense(claims.views, domainOf)
    // accuracy, its statistic and the claim count of actor a in domain d at a * nDom + d
    val acc = Array.fill(claims.nActors * nDom)(0.8)
    val hit = new Array[Double](acc.length)
    val cnt = new Array[Int](acc.length)
    for (o <- dom.indices) claims.foreachClaim(o)((a, _) => cnt(a * nDom + dom(o)) += 1)
    // LCA: popularity of each candidate among all claims on its object
    val pop = if (!guessesByPopularity) null else Array.tabulate(dom.length) { o =>
      val cnt = claims.votes(o).map(_.toDouble)
      val tot = math.max(1.0, cnt.sum)
      cnt.map(c => math.max(c / tot, 1e-6))
    }

    new BaselineEm.Model {
      def addLogLik(o: Int, a: Int, u: Int, logMu: Array[Double]): Unit = {
        val q = acc(a * nDom + dom(o))
        val n = logMu.length
        var v = 0
        while (v < n) {
          val p =
            if (u == v) q
            else if (pop == null) (1 - q) / (n - 1)
            else { // guess_o(u|v): popularity renormalized over candidates ≠ v
              val z = 1.0 - pop(o)(v)
              (1 - q) * (if (z <= 1e-9) 1e-9 else pop(o)(u) / z)
            }
          logMu(v) += math.log(math.max(p, 1e-12))
          v += 1
        }
      }

      def collect(o: Int, a: Int, u: Int, mu: Array[Double]): Unit = hit(a * nDom + dom(o)) += mu(u)

      def mStep(): Unit = for (k <- acc.indices) {
        acc(k) = (hit(k) + 1.0) / (cnt(k) + 2.0) // Beta(1,1) smoothing
        hit(k) = 0.0
      }

      // DOCS and MDC: the claim-weighted mean over the domains the worker
      // claims in; LCA: θ itself, as θ·c/c may differ from θ in the last bit.
      def workerAcc: Map[Int, Double] = claims.byWorker { a =>
        val ks = (a * nDom until (a + 1) * nDom).filter(cnt(_) > 0)
        if (pop == null) ks.map(k => acc(k) * cnt(k)).sum / math.max(1, ks.map(cnt).sum) else acc(a)
      }
    }
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

/** GuessLCA (Pasternack & Roth, WWW 2013) as the single-domain accuracy EM:
  * the accuracy is the honesty θ, and a dishonest claim is a "guess" drawn
  * from the empirical popularity of the other candidate values.
  */
final class LcaInference extends AccuracyEmInference((_, _) => 0) {
  val name = "LCA"
  override protected def guessesByPopularity: Boolean = true
}
