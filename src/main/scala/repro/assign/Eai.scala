package repro.assign

import repro.baselines.InferState
import repro.data.AnswerLog

import scala.collection.mutable

/** EAI — the paper's task assignment (§4).
  *
  * Quality measure: Expected Accuracy Improvement (Eq. 14), computed with the
  * one-step incremental EM of §4.2 — the conditional confidence after a
  * hypothetical answer v' reuses the converged N_{o,v}/D_o statistics
  * (Eq. 18), so objects with many collected claims move little.
  *
  * Assignment: Algorithm 1 — objects scanned in decreasing upper bound
  * U_EAI(o) (Lemma 4.1), workers in decreasing ψ_w,1; a worker keeps its best
  * k objects in a min-heap and evicted objects cascade to the next worker;
  * the scan stops early once no remaining upper bound can beat any heap
  * minimum. `pruned = false` disables the bound-based skipping/stop for the
  * equivalence tests.
  */
final class EaiAssigner(pruned: Boolean = true) extends Assigner {
  val name = "EAI"

  def assign(state: InferState, answers: AnswerLog, workers: Seq[Int], k: Int): Seq[(Int, Int)] = {
    val muNum = state.muNum.getOrElse(
      throw new IllegalArgumentException("EAI requires the N_{o,v} statistics (TDH inference)"))
    val muDen = state.muDen.getOrElse(
      throw new IllegalArgumentException("EAI requires the D_o statistics (TDH inference)"))
    val nObj = state.views.length

    // Lemma 4.1 upper bound (|O| cancels in all comparisons; keep it for fidelity).
    val ub = Array.tabulate(nObj)(o => (1.0 - state.mu(o).max) / (nObj * (muDen(o) + 1.0)))

    // workers in decreasing psi_{w,1} (unknown workers get the Dir(β) mean 1/3)
    val orderedWorkers = workers.sortBy(w => (-state.workerAcc.getOrElse(w, 1.0 / 3), w)).toIndexedSeq

    val hUb = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by { case (u, o) => (u, -o) })
    (0 until nObj).foreach(o => hUb.enqueue((ub(o), o)))

    // per-worker min-heaps of (eai, obj)
    val minOrd: Ordering[(Double, Int)] = Ordering.by { case (e, o) => (-e, o) }
    val heaps = orderedWorkers.map(_ => mutable.PriorityQueue.empty[(Double, Int)](minOrd))

    def allFull: Boolean = heaps.forall(_.size >= k)
    def globalMinEai: Double = heaps.iterator.filter(_.nonEmpty).map(_.head._1).min

    while (hUb.nonEmpty) {
      val (u0, o0) = hUb.dequeue()
      if (pruned && allFull && globalMinEai > u0) {
        hUb.clear() // no remaining object can enter any heap
      } else {
        var cur = o0
        var wi = 0
        while (cur >= 0 && wi < orderedWorkers.length) {
          val w = orderedWorkers(wi)
          val h = heaps(wi)
          val skip =
            answers.hasAnswered(w, cur) ||
              (pruned && h.size >= k && h.head._1 > ub(cur))
          if (!skip) {
            val e = eai(state, muNum, muDen, w, cur)
            h.enqueue((e, cur))
            if (h.size > k) {
              val (_, evicted) = h.dequeue()
              cur = evicted // cascade the evicted object to the next worker
            } else cur = -1
          }
          wi += 1
        }
      }
    }

    heaps.zipWithIndex.flatMap { case (h, wi) =>
      h.toSeq.map { case (_, o) => (orderedWorkers(wi), o) }
    }.toSeq
  }

  /** EAI(w, o) per Eqs. (14), (15), (18). */
  def eai(state: InferState, muNum: Array[Array[Double]], muDen: Array[Double], w: Int, o: Int): Double = {
    val mu = state.mu(o)
    val n = mu.length
    val nObj = state.views.length
    // joint(v) = P(v_o^w = u | v_o^* = v, psi_w) * mu_o(v) for the current u
    val joint = new Array[Double](n)
    var expMax = 0.0
    var uIdx = 0
    while (uIdx < n) {
      // marginal P(v_o^w = u | psi_w, mu_o) — Eq. (6)
      var pu = 0.0
      var v = 0
      while (v < n) { joint(v) = state.answerProb(o, w, uIdx, v) * mu(v); pu += joint(v); v += 1 }
      if (pu > 1e-15) {
        // conditional confidence mu_{o,v | v^w = u} — Eq. (18)
        var best = 0.0
        v = 0
        while (v < n) {
          val f = joint(v) / pu
          val cond = (muNum(o)(v) + f) / (muDen(o) + 1.0)
          if (cond > best) best = cond
          v += 1
        }
        expMax += pu * best
      }
      uIdx += 1
    }
    (expMax - mu.max) / nObj
  }
}
