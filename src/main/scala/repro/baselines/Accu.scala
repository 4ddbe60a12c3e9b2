package repro.baselines

import repro.core.TdhProb
import repro.data.{AnswerLog, ClaimTable, ObjectView}

import scala.collection.mutable

/** ACCU / POPACCU (Dong, Berti-Equille, Srivastava, PVLDB 2009/2012).
  *
  * Bayesian truth discovery with source accuracies and copy detection:
  *  - vote count of a source is σ(s) = ln(n·A_s/(1−A_s)); value confidence is
  *    the dependence-discounted sum of vote counts; μ is its softmax;
  *  - pairwise dependence P(s1~s2) is estimated from the shared objects of a
  *    pair, driven mainly by shared *false* values (kt/kf/kd counts);
  *  - ACCU assumes the n false values are equally likely; POPACCU replaces
  *    that with the observed popularity of the false values.
  *
  * Crowd answers participate as independent voters with their own accuracy.
  * As the paper observes (§5.2), dependence estimation needs many shared
  * objects per source pair — with Heritages-like long-tail sources the
  * estimates collapse, which is the behaviour reproduced here.
  */
final class AccuInference(popularityFalse: Boolean) extends TruthInference {
  val name: String = if (popularityFalse) "POPACCU" else "ACCU"
  private val OuterIters = 4
  private val InnerIters = 8
  private val CopyRate = 0.8
  private val DepPrior = 0.2

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState = {
    val claims = ClaimTable(views, answers)
    val nObj = views.length
    val accuracy = Array.fill(claims.nActors)(0.8)
    val nClaims = claims.claimsPerActor
    // voters are taken in decreasing accuracy, ties broken on (isWorker, id)
    val byIdRank = new Array[Int](claims.nActors)
    Array.range(0, claims.nActors).sortBy(a => (claims.isWorker(a), claims.actorId(a))).zipWithIndex
      .foreach { case (a, rank) => byIdRank(a) = rank }
    val voteOrder: Ordering[Int] = (a, b) => {
      val c = java.lang.Double.compare(-accuracy(a), -accuracy(b))
      if (c != 0) c else Integer.compare(byIdRank(a), byIdRank(b))
    }

    val mu = Array.tabulate(nObj)(o => Array.fill(views(o).nCands)(1.0 / views(o).nCands))
    var truth = Array.tabulate(nObj)(o => TdhProb.argmaxTruth(views(o), mu(o)))
    // dependence probability per unordered source pair (workers stay independent)
    var dep = mutable.LongMap.empty[Double]
    def depOf(a: Int, b: Int): Double =
      if (claims.isWorker(a) || claims.isWorker(b)) 0.0 else dep.getOrElse(pairKey(a, b), 0.0)

    for (_ <- 1 to OuterIters) {
      dep = estimateDependence(claims, accuracy, truth)
      var inner = 0
      while (inner < InnerIters) {
        for (o <- 0 until nObj) {
          val view = views(o)
          val n = view.nCands
          val conf = new Array[Double](n)
          // process actors in decreasing accuracy; discount repeated votes on
          // the same value by the probability of independence from the
          // already-counted voters of that value
          val ordered = Array.range(0, claims.nClaims(o)).sortBy(claims.actor(o, _))(voteOrder)
          val counted = Array.fill(n)(List.empty[Int])
          ordered.foreach { i =>
            val a = claims.actor(o, i)
            val u = claims.value(o, i)
            val indep = counted(u).foldLeft(1.0)((acc, prev) => acc * (1 - depOf(a, prev)))
            val aAcc = clampP(accuracy(a))
            // POPACCU: popularity of u among the *false* claims (a value that
            // matches the current truth has no false occurrences, only the
            // smoothing mass) — ACCU assumes the uniform distribution instead
            val falseP =
              if (popularityFalse) {
                val t = truth(o)
                val cntFalse = if (u == t) 0 else view.srcCount(u)
                val totalFalse = view.nRecords - view.srcCount(t)
                (cntFalse + 0.5) / (totalFalse + 0.5 * math.max(1, n - 1))
              } else 1.0 / math.max(1, n - 1)
            conf(u) += indep * math.log(aAcc / math.max(1e-9, (1 - aAcc) * falseP))
            counted(u) ::= a
          }
          TruthInference.softmaxInto(conf, mu(o))
        }
        truth = Array.tabulate(nObj)(o => TdhProb.argmaxTruth(views(o), mu(o)))
        // accuracy update: expected fraction of correct claims
        val hit = new Array[Double](claims.nActors)
        for (o <- 0 until nObj) claims.foreachClaim(o)((a, u) => hit(a) += mu(o)(u))
        for (a <- accuracy.indices) accuracy(a) = clampP((hit(a) + 0.8) / (nClaims(a) + 1.0))
        inner += 1
      }
    }

    TruthInference.uniformState(views, mu, truth, claims.byWorker(accuracy(_)))
  }

  /** Test hook: dependence probabilities for a fixed truth assignment and a
    * flat source-accuracy prior (exposes the copy-detection machinery), keyed
    * by ((isWorker, id), (isWorker, id)) pairs in id order.
    */
  private[baselines] def dependenceFor(
      views: Array[ObjectView],
      truth: Array[Int],
      accuracy: Double = 0.8,
  ): Map[((Boolean, Int), (Boolean, Int)), Double] = {
    val claims = ClaimTable(views, new AnswerLog(views.length))
    estimateDependence(claims, Array.fill(claims.nSrc)(accuracy), truth).map { case (key, p) =>
      val (s1, s2) = (claims.srcIds((key >>> 32).toInt), claims.srcIds(key.toInt))
      (((false, math.min(s1, s2)), (false, math.max(s1, s2))), p)
    }.toMap
  }

  private def clampP(x: Double): Double = math.max(0.01, math.min(0.99, x))

  /** Key of the unordered pair of dense source ids {a, b}. */
  private def pairKey(a: Int, b: Int): Long = math.min(a, b).toLong << 32 | math.max(a, b)

  /** Bayesian copy detection over source pairs sharing objects (Dong'09 §3):
    * counts kt (agree on the truth), kf (agree on a false value), kd
    * (disagree) and compares the independent vs copying likelihoods.
    */
  private def estimateDependence(
      claims: ClaimTable,
      accuracy: Array[Double],
      truth: Array[Int],
  ): mutable.LongMap[Double] = {
    final class Counts(var kt: Int, var kf: Int, var kd: Int, var nSum: Double)
    val counts = mutable.LongMap.empty[Counts]
    for (o <- claims.views.indices) {
      // only web sources can copy each other
      val vals = claims.views(o).srcVals
      val off = claims.recOff(o)
      val n = math.max(1, claims.views(o).nCands - 1)
      var i = 0
      while (i < vals.length) {
        var j = i + 1
        while (j < vals.length) {
          val c = counts.getOrElseUpdate(pairKey(claims.recSrc(off + i), claims.recSrc(off + j)), new Counts(0, 0, 0, 0.0))
          val same = vals(i) == vals(j)
          if (same && vals(i) == truth(o)) c.kt += 1
          else if (same) c.kf += 1
          else c.kd += 1
          c.nSum += n
          j += 1
        }
        i += 1
      }
    }
    counts.map { case (key, c) =>
      val tot = c.kt + c.kf + c.kd
      val n = math.max(1.0, c.nSum / tot)
      val q1 = clampP(accuracy((key >>> 32).toInt)); val q2 = clampP(accuracy(key.toInt))
      val pT = q1 * q2
      val pF = (1 - q1) * (1 - q2) / n
      val pD = math.max(1e-9, 1 - pT - pF)
      val qAvg = (q1 + q2) / 2
      val li = c.kt * math.log(pT) + c.kf * math.log(math.max(1e-12, pF)) + c.kd * math.log(pD)
      val ld = c.kt * math.log(CopyRate * qAvg + (1 - CopyRate) * pT) +
        c.kf * math.log(math.max(1e-12, CopyRate * (1 - qAvg) + (1 - CopyRate) * pF)) +
        c.kd * math.log((1 - CopyRate) * pD)
      val m = math.max(li, ld)
      val pDep = DepPrior * math.exp(ld - m) /
        (DepPrior * math.exp(ld - m) + (1 - DepPrior) * math.exp(li - m))
      key -> pDep
    }
  }
}
