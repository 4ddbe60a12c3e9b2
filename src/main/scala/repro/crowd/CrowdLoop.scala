package repro.crowd

import repro.assign.Assigner
import repro.baselines.{InferState, TruthInference}
import repro.data.{AnswerLog, TdDataset}
import repro.eval.Metrics

import scala.util.Random

/** Simulated crowd workers (§5.4): worker w answers correctly with its own
  * probability p_w ~ U(π_p − 0.05, π_p + 0.05) and uniformly at random from
  * the candidate set otherwise.
  */
final class SimWorkers(val pw: Array[Double], seed: Long) {
  private val rnd = new Random(seed)

  def ids: Seq[Int] = pw.indices

  /** Simulate worker w's answer for object o: the (mapped-gold) candidate
    * index if correct, else uniform among V_o.
    */
  def answer(ds: TdDataset, w: Int, o: Int): Int = {
    val view = ds.views(o)
    val goldIdx = view.candIndex(ds.mappedGold(o))
    if (goldIdx >= 0 && rnd.nextDouble() < pw(w)) goldIdx
    else rnd.nextInt(view.nCands)
  }
}

object SimWorkers {
  def uniform(n: Int, piP: Double, seed: Long): SimWorkers = {
    val rnd = new Random(seed ^ 0x5157L)
    new SimWorkers(Array.fill(n)(piP - 0.05 + rnd.nextDouble() * 0.10), seed)
  }
}

/** One round's quality snapshot (round 0 = before any crowdsourcing).
  *
  * @param inferIterations EM iterations of the round's inference
  * @param converged       whether that EM reached its tolerance
  */
final case class RoundTrace(
    round: Int,
    accuracy: Double,
    genAccuracy: Double,
    avgDistance: Double,
    inferMillis: Long,
    assignMillis: Long,
    inferIterations: Int = 0,
    converged: Boolean = false,
)

/** The crowdsourced truth-discovery driver (Fig. 2): alternate truth
  * inference and task assignment until the round budget runs out. Each
  * round's inference starts from the previous round's state of this run.
  */
object CrowdLoop {

  def run(
      ds: TdDataset,
      inference: TruthInference,
      assigner: Assigner,
      workers: SimWorkers,
      rounds: Int,
      k: Int = 5,
  ): (Vector[RoundTrace], InferState) = {
    val answers = new AnswerLog(ds.numObjects)
    val traces = Vector.newBuilder[RoundTrace]
    var state: InferState = null

    for (round <- 0 to rounds) {
      val t0 = System.nanoTime()
      state = if (state == null) inference.infer(ds.views, answers) else inference.infer(ds.views, answers, state)
      val tInfer = (System.nanoTime() - t0) / 1000000

      var tAssign = 0L
      if (round < rounds) {
        val t1 = System.nanoTime()
        val tasks = assigner.assign(state, answers, workers.ids, k)
        tAssign = (System.nanoTime() - t1) / 1000000
        tasks.foreach { case (w, o) => answers.add(o, w, workers.answer(ds, w, o)) }
      }

      val est = state.truthValues
      traces += RoundTrace(
        round,
        Metrics.accuracy(ds, est),
        Metrics.genAccuracy(ds, est),
        Metrics.avgDistance(ds, est),
        tInfer,
        tAssign,
        state.iterations,
        state.converged,
      )
    }
    (traces.result(), state)
  }
}
