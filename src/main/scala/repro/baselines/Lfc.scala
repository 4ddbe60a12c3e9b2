package repro.baselines

import repro.core.TdhProb
import repro.data.{AnswerLog, ObjectView}

import scala.collection.mutable

/** LFC — Learning From Crowds (Raykar et al., JMLR 2010), single-truth form.
  *
  * Every source/worker has a confusion matrix π(j, k) = P(claim = k-th
  * candidate | truth = j-th candidate) over candidate positions; the matrix
  * side is the max candidate-set size, which is why the paper notes LFC is
  * slow when |V_o| grows (§5.4 execution times).
  */
final class LfcInference(maxIters: Int = 50) extends TruthInference {
  val name = "LFC"

  private type Actor = (Boolean, Int)

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState = {
    val nObj = views.length
    val k = views.map(_.nCands).max
    val claims: Array[Array[(Actor, Int)]] = Array.tabulate(nObj) { o =>
      val v = views(o)
      (v.srcIds.indices.map(i => ((false, v.srcIds(i)): Actor, v.srcVals(i))) ++
        answers.answersFor(o).map { case (w, j) => ((true, w): Actor, j) }).toArray
    }
    // init: diagonally dominant confusion matrices
    val pi = mutable.HashMap.empty[Actor, Array[Array[Double]]]
    claims.foreach(_.foreach { case (a, _) =>
      if (!pi.contains(a))
        pi(a) = Array.tabulate(k, k)((j, l) => if (j == l) 0.7 else 0.3 / math.max(1, k - 1))
    })

    val mu = Array.tabulate(nObj)(o => Array.fill(views(o).nCands)(1.0 / views(o).nCands))
    var iter = 0
    var delta = Double.MaxValue
    while (iter < maxIters && delta > 1e-6) {
      val acc = mutable.HashMap.empty[Actor, Array[Array[Double]]]
      pi.keys.foreach(a => acc(a) = Array.ofDim[Double](k, k))
      delta = 0.0
      for (o <- 0 until nObj) {
        val n = views(o).nCands
        val logMu = new Array[Double](n)
        claims(o).foreach { case (a, u) =>
          val m = pi(a)
          var j = 0
          while (j < n) { logMu(j) += math.log(math.max(m(j)(u), 1e-12)); j += 1 }
        }
        val mx = logMu.max
        val ex = logMu.map(x => math.exp(x - mx))
        val z = ex.sum
        var j = 0
        while (j < n) {
          val next = ex(j) / z
          delta = math.max(delta, math.abs(next - mu(o)(j)))
          mu(o)(j) = next
          j += 1
        }
        claims(o).foreach { case (a, u) =>
          val m = acc(a)
          var jj = 0
          while (jj < n) { m(jj)(u) += mu(o)(jj); jj += 1 }
        }
      }
      pi.keys.foreach { a =>
        val m = acc(a)
        val rowSum = m.map(_.sum)
        pi(a) = Array.tabulate(k, k)((j, l) => (m(j)(l) + 0.1) / (rowSum(j) + 0.1 * k)) // Laplace-smoothed rows
      }
      iter += 1
    }

    val truth = Array.tabulate(nObj)(o => TdhProb.argmaxTruth(views(o), mu(o)))
    val workerAcc = pi.collect { case ((true, w), m) =>
      w -> (0 until k).map(j => m(j)(j)).sum / k
    }.toMap
    InferState(views, mu, truth,
      TruthInference.uniformAnswerProb(views, w => workerAcc.getOrElse(w, 0.75)),
      workerAcc)
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
    maxIters: Int = 50,
) {

  /** Posterior P(t_{o,v} = 1) for every object and candidate. */
  def posteriors(views: Array[ObjectView], answers: AnswerLog): Array[Array[Double]] = {
    val nObj = views.length
    type Actor = (Boolean, Int)
    val claims: Array[Array[(Actor, Int)]] = Array.tabulate(nObj) { o =>
      val v = views(o)
      (v.srcIds.indices.map(i => ((false, v.srcIds(i)): Actor, v.srcVals(i))) ++
        answers.answersFor(o).map { case (w, j) => ((true, w): Actor, j) }).toArray
    }
    val se = mutable.HashMap.empty[Actor, Double] // P(label v | v true)
    val sp = mutable.HashMap.empty[Actor, Double] // P(not label v | v false)
    claims.foreach(_.foreach { case (a, _) =>
      se.getOrElseUpdate(a, seA / (seA + seB))
      sp.getOrElseUpdate(a, spA / (spA + spB))
    })

    val post = Array.tabulate(nObj)(o => Array.fill(views(o).nCands)(priorTrue))
    var iter = 0
    var delta = Double.MaxValue
    while (iter < maxIters && delta > 1e-6) {
      delta = 0.0
      val seNum = mutable.HashMap.empty[Actor, Double].withDefaultValue(0.0)
      val seDen = mutable.HashMap.empty[Actor, Double].withDefaultValue(0.0)
      val spNum = mutable.HashMap.empty[Actor, Double].withDefaultValue(0.0)
      val spDen = mutable.HashMap.empty[Actor, Double].withDefaultValue(0.0)
      for (o <- 0 until nObj) {
        val n = views(o).nCands
        var v = 0
        while (v < n) {
          var lp1 = math.log(priorTrue)
          var lp0 = math.log(1 - priorTrue)
          claims(o).foreach { case (a, u) =>
            val pos = u == v
            lp1 += math.log(math.max(1e-12, if (pos) se(a) else 1 - se(a)))
            lp0 += math.log(math.max(1e-12, if (pos) 1 - sp(a) else sp(a)))
          }
          val m = math.max(lp1, lp0)
          val p1 = math.exp(lp1 - m) / (math.exp(lp1 - m) + math.exp(lp0 - m))
          delta = math.max(delta, math.abs(p1 - post(o)(v)))
          post(o)(v) = p1
          claims(o).foreach { case (a, u) =>
            val pos = u == v
            seDen(a) += p1; if (pos) seNum(a) += p1
            spDen(a) += 1 - p1; if (!pos) spNum(a) += 1 - p1
          }
          v += 1
        }
      }
      se.keys.foreach { a =>
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
