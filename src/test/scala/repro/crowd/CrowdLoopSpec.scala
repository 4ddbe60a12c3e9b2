package repro.crowd

import org.scalatest.funsuite.AnyFunSuite
import repro.assign.{EaiAssigner, MaxEntropyAssigner, QascaAssigner}
import repro.baselines.{LcaInference, TdhInference, VoteInference}
import repro.data.TruthDataGen

class CrowdLoopSpec extends AnyFunSuite {

  private lazy val ds = TruthDataGen.generate(
    TruthDataGen.birthPlacesConfig.copy(numObjects = 200, targetRecords = 600, hierNodes = 400, seed = 8))

  test("SimWorkers draws p_w within [pi_p - 0.05, pi_p + 0.05]") {
    val w = SimWorkers.uniform(50, piP = 0.75, seed = 1)
    w.pw.foreach(p => assert(p >= 0.70 - 1e-9 && p <= 0.80 + 1e-9))
    assert(w.pw.distinct.length > 1)
  }

  test("SimWorkers answers are valid candidate indices") {
    val w = SimWorkers.uniform(10, 0.75, seed = 2)
    for (o <- 0 until 50; wid <- 0 until 10) {
      val a = w.answer(ds, wid, o)
      assert(a >= 0 && a < ds.views(o).nCands)
    }
  }

  test("a perfect worker always answers the mapped gold when it is a candidate") {
    val w = new SimWorkers(Array(1.0), seed = 3)
    for (o <- 0 until 100) {
      val view = ds.views(o)
      val goldIdx = view.candIndex(ds.mappedGold(o))
      if (goldIdx >= 0) assert(w.answer(ds, 0, o) == goldIdx)
    }
  }

  test("TDH+EAI accuracy does not degrade and eventually improves with rounds") {
    val workers = SimWorkers.uniform(10, 0.75, seed = 5)
    val (trace, _) = CrowdLoop.run(ds, new TdhInference(), new EaiAssigner(), workers, rounds = 6)
    assert(trace.length == 7)
    assert(trace.head.round == 0 && trace.last.round == 6)
    assert(trace.last.accuracy >= trace.head.accuracy - 0.01,
      s"round0=${trace.head.accuracy} round6=${trace.last.accuracy}")
    assert(trace.last.accuracy > trace.head.accuracy,
      s"no improvement: ${trace.map(_.accuracy).mkString(",")}")
  }

  test("round 0 equals inference without crowdsourcing for every combo") {
    val workers = SimWorkers.uniform(10, 0.75, seed = 6)
    val (t1, _) = CrowdLoop.run(ds, new TdhInference(), new EaiAssigner(), workers, rounds = 1)
    val (t2, _) = CrowdLoop.run(ds, new TdhInference(), new QascaAssigner(seed = 1), SimWorkers.uniform(10, 0.75, seed = 6), rounds = 1)
    assert(t1.head.accuracy == t2.head.accuracy)
  }

  test("VOTE+ME runs end-to-end and records traces") {
    val workers = SimWorkers.uniform(10, 0.75, seed = 7)
    val (trace, state) = CrowdLoop.run(ds, new VoteInference(), new MaxEntropyAssigner(), workers, rounds = 3)
    assert(trace.length == 4)
    assert(trace.forall(t => t.inferIterations == 0 && !t.converged))
    assert(state.truthIdx.length == ds.numObjects)
    trace.foreach { t =>
      assert(t.accuracy >= 0 && t.accuracy <= 1)
      assert(t.genAccuracy >= t.accuracy - 1e-9)
      assert(t.avgDistance >= 0)
    }
  }

  test("LCA+ME rounds report the EM iterations of every round") {
    val workers = SimWorkers.uniform(10, 0.75, seed = 7)
    val (trace, _) = CrowdLoop.run(ds, new LcaInference(), new MaxEntropyAssigner(), workers, rounds = 2)
    assert(trace.length == 3 && trace.forall(_.inferIterations > 0), trace)
  }

  /** Two 3-round TDH+EAI sessions on BirthPlaces, times zeroed. */
  private lazy val bpSessions = {
    val bp = TruthDataGen.birthPlaces()
    Seq.fill(2)(CrowdLoop.run(bp, new TdhInference(), new EaiAssigner(), SimWorkers.uniform(10, 0.75, seed = 123),
      rounds = 3)._1.map(_.copy(inferMillis = 0, assignMillis = 0)))
  }

  test("two CrowdLoop.run calls give identical traces") {
    assert(bpSessions(0) == bpSessions(1))
  }

  test("warm-started TDH rounds converge in fewer EM evaluations than round 0 (BirthPlaces)") {
    val trace = bpSessions(0)
    assert(trace.forall(_.converged), trace)
    for (t <- trace.tail) assert(t.inferIterations < trace.head.inferIterations, trace)
  }

  test("answer volume grows by at most workers*k per round") {
    val workers = SimWorkers.uniform(10, 0.75, seed = 9)
    val (trace, _) = CrowdLoop.run(ds, new TdhInference(), new EaiAssigner(), workers, rounds = 2, k = 5)
    assert(trace.nonEmpty) // the loop itself enforces <= 50 new answers/round via the assigners
  }
}
