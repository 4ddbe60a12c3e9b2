package repro.baselines

import repro.data.{AnswerLog, ClaimTable, ObjectView}

/** LFC — Learning From Crowds (Raykar et al., JMLR 2010), single-truth form.
  *
  * Every source/worker has a confusion matrix π(j, k) = P(claim = k-th
  * candidate | truth = j-th candidate) over candidate positions; the matrix
  * side is the max candidate-set size, which is why the paper notes LFC is
  * slow when |V_o| grows (§5.4 execution times).
  */
final class LfcInference extends BaselineEm {
  val name = "LFC"

  private[baselines] def model(claims: ClaimTable): BaselineEm.Model = {
    val k = claims.views.map(_.nCands).max
    // init: diagonally dominant confusion matrices, by actor
    val pi = Array.fill(claims.nActors)(Array.tabulate(k, k)((j, l) => if (j == l) 0.7 else 0.3 / math.max(1, k - 1)))
    val acc = Array.fill(claims.nActors)(Array.ofDim[Double](k, k))

    new BaselineEm.Model {
      def addLogLik(o: Int, a: Int, u: Int, logMu: Array[Double]): Unit = {
        val m = pi(a)
        var j = 0
        while (j < logMu.length) { logMu(j) += math.log(math.max(m(j)(u), 1e-12)); j += 1 }
      }

      def collect(o: Int, a: Int, u: Int, mu: Array[Double]): Unit = {
        val m = acc(a)
        var j = 0
        while (j < mu.length) { m(j)(u) += mu(j); j += 1 }
      }

      def mStep(): Unit = { // Laplace-smoothed rows
        var a = 0
        while (a < pi.length) {
          var j = 0
          while (j < k) {
            val row = acc(a)(j)
            val out = pi(a)(j)
            var sum = 0.0
            var l = 0
            while (l < k) { sum += row(l); l += 1 }
            val den = sum + 0.1 * k
            l = 0
            while (l < k) { out(l) = (row(l) + 0.1) / den; row(l) = 0.0; l += 1 }
            j += 1
          }
          a += 1
        }
      }

      def workerAcc: Map[Int, Double] = claims.byWorker(a => (0 until k).map(j => pi(a)(j)(j)).sum / k)
    }
  }
}

/** Shared per-value binary EM used by the multi-truth algorithms (LFC-MT and
  * LTM): each (object, candidate) pair is a binary task "is v a truth of o?";
  * a source labels it positive iff it claims exactly v. Sources carry
  * sensitivity (recall) and specificity parameters.
  *
  * @param priorTrue    prior P(t_{o,v} = 1)
  * @param seA,seB      Beta prior of sensitivity
  * @param spA,spB      Beta prior of specificity
  */
class BinaryPerValueEm(
    val name: String,
    priorTrue: Double,
    seA: Double, seB: Double,
    spA: Double, spB: Double,
) {
  /** Posterior P(t_{o,v} = 1) for every object and candidate. */
  def posteriors(views: Array[ObjectView], answers: AnswerLog): Array[Array[Double]] = {
    val claims = ClaimTable(views, answers)
    val nObj = views.length
    val se = Array.fill(claims.nActors)(seA / (seA + seB)) // P(label v | v true), by actor
    val sp = Array.fill(claims.nActors)(spA / (spA + spB)) // P(not label v | v false)

    val post = Array.tabulate(nObj)(o => Array.fill(views(o).nCands)(priorTrue))
    var iter = 0
    var delta = Double.MaxValue
    while (iter < BaselineEm.MaxIters && delta > BaselineEm.Tol) {
      delta = 0.0
      val seNum, seDen, spNum, spDen = new Array[Double](claims.nActors)
      for (o <- 0 until nObj) {
        val n = views(o).nCands
        var v = 0
        while (v < n) {
          var lp1 = math.log(priorTrue)
          var lp0 = math.log(1 - priorTrue)
          claims.foreachClaim(o) { (a, u) =>
            val pos = u == v
            lp1 += math.log(math.max(1e-12, if (pos) se(a) else 1 - se(a)))
            lp0 += math.log(math.max(1e-12, if (pos) 1 - sp(a) else sp(a)))
          }
          val m = math.max(lp1, lp0)
          val p1 = math.exp(lp1 - m) / (math.exp(lp1 - m) + math.exp(lp0 - m))
          delta = math.max(delta, math.abs(p1 - post(o)(v)))
          post(o)(v) = p1
          claims.foreachClaim(o) { (a, u) =>
            val pos = u == v
            seDen(a) += p1; if (pos) seNum(a) += p1
            spDen(a) += 1 - p1; if (!pos) spNum(a) += 1 - p1
          }
          v += 1
        }
      }
      for (a <- se.indices) {
        se(a) = (seNum(a) + seA) / (seDen(a) + seA + seB)
        sp(a) = (spNum(a) + spA) / (spDen(a) + spA + spB)
      }
      iter += 1
    }
    post
  }

  /** Multi-truth output: candidates with posterior > 0.5 (at least the best). */
  def inferSets(views: Array[ObjectView], answers: AnswerLog): Array[Set[Int]] = {
    val post = posteriors(views, answers)
    Array.tabulate(views.length) { o =>
      val v = views(o)
      val chosen = (0 until v.nCands).filter(post(o)(_) > 0.5)
      val base = if (chosen.nonEmpty) chosen else Seq((0 until v.nCands).maxBy(post(o)(_)))
      base.map(v.cands).toSet
    }
  }
}

/** LFC-MT: multi-truth variant of LFC with flat (Laplace) priors. */
object LfcMt extends BinaryPerValueEm("LFC-MT", priorTrue = 0.5, seA = 1, seB = 1, spA = 1, spB = 1)

/** LTM (Zhao et al., PVLDB 2012): per-value Bernoulli truth with Beta priors
  * encouraging low false-positive rate, EM point estimates instead of Gibbs.
  */
object Ltm extends BinaryPerValueEm("LTM", priorTrue = 0.35, seA = 5, seB = 5, spA = 8, spB = 2)
