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
  *
  * The run does `OuterIters` dependence estimates, each followed by
  * `InnerIters` μ updates; it reports the μ updates as its iterations and
  * whether the last one moved μ by at most [[BaselineEm.Tol]].
  */
final class AccuInference(popularityFalse: Boolean) extends TruthInference {
  val name: String = if (popularityFalse) "POPACCU" else "ACCU"
  private val OuterIters = 4
  private val InnerIters = 8
  private val CopyRate = 0.8
  private val DepPrior = 0.2

  def infer(views: Array[ObjectView], answers: AnswerLog): InferState = {
    val claims = ClaimTable(views, answers)
    val pairs = new Pairs(claims)
    val nObj = views.length
    val nActors = claims.nActors
    val accuracy = Array.fill(nActors)(0.8)
    val nClaims = claims.claimsPerActor
    // voters are taken in decreasing accuracy, ties broken on (isWorker, id)
    val byIdRank = new Array[Int](nActors)
    Array.range(0, nActors).sortBy(a => (claims.isWorker(a), claims.actorId(a))).zipWithIndex
      .foreach { case (a, rank) => byIdRank(a) = rank }
    val voteOrder: Ordering[Int] = (a, b) => {
      val c = java.lang.Double.compare(-accuracy(a), -accuracy(b))
      if (c != 0) c else Integer.compare(byIdRank(a), byIdRank(b))
    }
    val voteRank = new Array[Int](nActors)

    val mu = Array.tabulate(nObj)(o => Array.fill(views(o).nCands)(1.0 / views(o).nCands))
    val truth = Array.tabulate(nObj)(o => TdhProb.argmaxTruth(views(o), mu(o)))
    val maxCands = views.foldLeft(1)((m, v) => math.max(m, v.nCands))
    val maxClaims = (0 until nObj).foldLeft(0)((m, o) => math.max(m, claims.nClaims(o)))
    // ACCU's vote term of actor a on an object with n candidates at
    // a * (maxCands + 1) + n; NaN until first needed in a pass
    val voteTerm = new Array[Double](nActors * (maxCands + 1))
    // scratch: confidence by candidate count; o's claims, their actors and
    // values, and its claim indices in vote order
    val conf = Array.tabulate(maxCands + 1)(new Array[Double](_))
    val act, vals, order = new Array[Int](maxClaims)
    val hit = new Array[Double](nActors)
    var iterations = 0
    var delta = Double.MaxValue

    for (_ <- 1 to OuterIters) {
      pairs.estimate(accuracy, truth)
      var inner = 0
      while (inner < InnerIters) {
        val byVote = Array.range(0, nActors).sorted(voteOrder)
        var r = 0
        while (r < nActors) { voteRank(byVote(r)) = r; r += 1 }
        java.util.Arrays.fill(voteTerm, Double.NaN)
        delta = 0.0
        var o = 0
        while (o < nObj) {
          val view = views(o)
          val n = view.nCands
          val c = conf(n)
          java.util.Arrays.fill(c, 0.0)
          // o's claims in decreasing accuracy (a stable insertion sort by rank)
          val k = claims.nClaims(o)
          var i = 0
          while (i < k) {
            act(i) = claims.actor(o, i)
            vals(i) = claims.value(o, i)
            val rank = voteRank(act(i))
            var p = i
            while (p > 0 && voteRank(act(order(p - 1))) > rank) { order(p) = order(p - 1); p -= 1 }
            order(p) = i
            i += 1
          }
          var p = 0
          while (p < k) {
            val i = order(p)
            val a = act(i)
            val u = vals(i)
            // discount a repeated vote on u by the probability of independence
            // from the already-counted voters of u, newest first
            var indep = 1.0
            var q = p - 1
            while (q >= 0) {
              if (vals(order(q)) == u) indep *= 1 - pairs.dep(o, i, order(q))
              q -= 1
            }
            val aAcc = clampP(accuracy(a))
            val term =
              if (popularityFalse) {
                // POPACCU: popularity of u among the *false* claims (a value
                // that matches the current truth has no false occurrences,
                // only the smoothing mass)
                val t = truth(o)
                val cntFalse = if (u == t) 0 else view.srcCount(u)
                val totalFalse = view.nRecords - view.srcCount(t)
                val falseP = (cntFalse + 0.5) / (totalFalse + 0.5 * math.max(1, n - 1))
                math.log(aAcc / math.max(1e-9, (1 - aAcc) * falseP))
              } else { // ACCU: the n − 1 false values are equally likely
                val at = a * (maxCands + 1) + n
                if (java.lang.Double.isNaN(voteTerm(at))) {
                  val falseP = 1.0 / math.max(1, n - 1)
                  voteTerm(at) = math.log(aAcc / math.max(1e-9, (1 - aAcc) * falseP))
                }
                voteTerm(at)
              }
            c(u) += indep * term
            p += 1
          }
          delta = math.max(delta, TruthInference.softmaxInto(c, mu(o)))
          o += 1
        }
        // truths, then accuracy: the expected fraction of correct claims
        java.util.Arrays.fill(hit, 0.0)
        o = 0
        while (o < nObj) {
          truth(o) = TdhProb.argmaxTruth(views(o), mu(o))
          var i = 0
          while (i < claims.nClaims(o)) { hit(claims.actor(o, i)) += mu(o)(claims.value(o, i)); i += 1 }
          o += 1
        }
        for (a <- accuracy.indices) accuracy(a) = clampP((hit(a) + 0.8) / (nClaims(a) + 1.0))
        iterations += 1
        inner += 1
      }
    }

    TruthInference.uniformState(views, mu, truth, claims.byWorker(accuracy(_)))
      .copy(iterations = iterations, converged = delta <= BaselineEm.Tol)
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
    val pairs = new Pairs(claims)
    pairs.estimate(Array.fill(claims.nSrc)(accuracy), truth)
    pairs.depById.indices.map { id =>
      val (s1, s2) = (claims.srcIds(pairs.lo(id)), claims.srcIds(pairs.hi(id)))
      (((false, math.min(s1, s2)), (false, math.max(s1, s2))), pairs.depById(id))
    }.toMap
  }

  private def clampP(x: Double): Double = math.max(0.01, math.min(0.99, x))

  /** The unordered pairs of dense source ids that share an object, by dense
    * pair id in order of first appearance, with their dependence under the
    * latest [[estimate]]. The pair of object o's records i and j is
    * pairAt(pairOff(o) + i * r + j), r = o's record count.
    */
  private final class Pairs(claims: ClaimTable) {
    private val views = claims.views
    private val pairOff = new Array[Int](views.length + 1)
    for (o <- views.indices) pairOff(o + 1) = pairOff(o) + views(o).nRecords * views(o).nRecords
    private val pairAt = new Array[Int](pairOff(views.length))
    val (lo, hi) = {
      val index = mutable.LongMap.empty[Int]
      val lo, hi = mutable.ArrayBuilder.make[Int]
      for (o <- views.indices) {
        val r = views(o).nRecords
        val off = claims.recOff(o)
        for (i <- 0 until r; j <- i + 1 until r) {
          val (a, b) = (claims.recSrc(off + i), claims.recSrc(off + j))
          val id = index.getOrElseUpdate(math.min(a, b).toLong << 32 | math.max(a, b), {
            lo += math.min(a, b); hi += math.max(a, b); index.size
          })
          pairAt(pairOff(o) + i * r + j) = id
          pairAt(pairOff(o) + j * r + i) = id
        }
      }
      (lo.result(), hi.result())
    }
    // kt (agree on the truth), kf (agree on a false value), kd (disagree),
    // the summed false-value counts and the dependence, by pair id
    private val kt, kf, kd = new Array[Int](lo.length)
    private val nSum = new Array[Double](lo.length)
    val depById = new Array[Double](lo.length)

    /** Dependence of the actors of o's claims i and j; 0 if either is an
      * answer (only web sources can copy each other).
      */
    def dep(o: Int, i: Int, j: Int): Double = {
      val r = views(o).nRecords
      if (i >= r || j >= r) 0.0 else depById(pairAt(pairOff(o) + i * r + j))
    }

    /** Bayesian copy detection over source pairs sharing objects (Dong'09
      * §3): counts kt/kf/kd and compares the independent vs copying
      * likelihoods.
      */
    def estimate(accuracy: Array[Double], truth: Array[Int]): Unit = {
      java.util.Arrays.fill(kt, 0)
      java.util.Arrays.fill(kf, 0)
      java.util.Arrays.fill(kd, 0)
      java.util.Arrays.fill(nSum, 0.0)
      var o = 0
      while (o < views.length) {
        val vals = views(o).srcVals
        val r = vals.length
        val n = math.max(1, views(o).nCands - 1)
        var i = 0
        while (i < r) {
          var j = i + 1
          while (j < r) {
            val id = pairAt(pairOff(o) + i * r + j)
            val same = vals(i) == vals(j)
            if (same && vals(i) == truth(o)) kt(id) += 1
            else if (same) kf(id) += 1
            else kd(id) += 1
            nSum(id) += n
            j += 1
          }
          i += 1
        }
        o += 1
      }
      var id = 0
      while (id < depById.length) {
        val tot = kt(id) + kf(id) + kd(id)
        val n = math.max(1.0, nSum(id) / tot)
        val q1 = clampP(accuracy(lo(id))); val q2 = clampP(accuracy(hi(id)))
        val pT = q1 * q2
        val pF = (1 - q1) * (1 - q2) / n
        val pD = math.max(1e-9, 1 - pT - pF)
        val qAvg = (q1 + q2) / 2
        val li = kt(id) * math.log(pT) + kf(id) * math.log(math.max(1e-12, pF)) + kd(id) * math.log(pD)
        val ld = kt(id) * math.log(CopyRate * qAvg + (1 - CopyRate) * pT) +
          kf(id) * math.log(math.max(1e-12, CopyRate * (1 - qAvg) + (1 - CopyRate) * pF)) +
          kd(id) * math.log((1 - CopyRate) * pD)
        val m = math.max(li, ld)
        depById(id) = DepPrior * math.exp(ld - m) /
          (DepPrior * math.exp(ld - m) + (1 - DepPrior) * math.exp(li - m))
        id += 1
      }
    }
  }
}
