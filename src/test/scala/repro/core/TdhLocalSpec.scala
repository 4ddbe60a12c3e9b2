package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.Fixtures._
import repro.data.{AnswerLog, TdDataset, TruthDataGen}
import repro.eval.Metrics

class TdhLocalSpec extends AnyFunSuite {

  private def empty(ds: TdDataset) = new AnswerLog(ds.numObjects)

  // ---- probability kernels -------------------------------------------------

  test("pSrc sums to 1 over claims when every case is feasible (o in O_H)") {
    val ds = Fixtures.table1World()
    val view = ds.views(0)
    val phi = Array(0.6, 0.25, 0.15)
    for (v <- 0 until view.nCands if view.anc(v).nonEmpty) {
      val s = (0 until view.nCands).map(u => TdhProb.pSrc(view, phi, u, v)).sum
      assert(math.abs(s - 1.0) < 1e-12, s"v=$v sum=$s")
    }
  }

  test("pSrc loses phi2 mass when the truth has no candidate ancestors (model as defined)") {
    val ds = Fixtures.table1World()
    val view = ds.views(0)
    val phi = Array(0.6, 0.25, 0.15)
    val nyIdx = view.candIndex(NY) // NY has no candidate ancestors
    val s = (0 until view.nCands).map(u => TdhProb.pSrc(view, phi, u, nyIdx)).sum
    assert(math.abs(s - (phi(0) + phi(2))) < 1e-12)
  }

  test("pSrc for o not in O_H merges phi1 and phi2 on the exact value (Eq. 2)") {
    val flat = Fixtures.flatWorld()
    val view = flat.views(0) // candidates LibertyIsland, LA
    val phi = Array(0.6, 0.25, 0.15)
    val v = 0
    assert(math.abs(TdhProb.pSrc(view, phi, v, v) - 0.85) < 1e-12)
    assert(math.abs(TdhProb.pSrc(view, phi, 1 - v, v) - 0.15) < 1e-12)
  }

  test("pWkr sums to 1 over answers for a hierarchical object") {
    val ds = Fixtures.table1World()
    val view = ds.views(0)
    val psi = Array(0.7, 0.2, 0.1)
    val liIdx = view.candIndex(LibertyIsland)
    val s = (0 until view.nCands).map(u => TdhProb.pWkr(view, psi, u, liIdx)).sum
    assert(math.abs(s - 1.0) < 1e-9)
  }

  test("Pop2/Pop3 are popularity-weighted and fall back to uniform") {
    val ds = Fixtures.table1World()
    val view = ds.views(0)
    val liIdx = view.candIndex(LibertyIsland)
    val nyIdx = view.candIndex(NY)
    val laIdx = view.candIndex(LA)
    assert(TdhProb.pop2(view, nyIdx, liIdx) == 1.0) // only generalized claim is NY
    assert(TdhProb.pop3(view, laIdx, liIdx) == 1.0) // only wrong claim is LA
    // truth = NY: pop2den is 0 -> uniform fallback over the (empty->1) set
    assert(TdhProb.pop2(view, liIdx, nyIdx) == 1.0)
  }

  test("relType classifies exact / generalized / wrong") {
    val ds = Fixtures.table1World()
    val view = ds.views(0)
    val li = view.candIndex(LibertyIsland); val ny = view.candIndex(NY); val la = view.candIndex(LA)
    assert(TdhProb.relType(view, li, li) == 1)
    assert(TdhProb.relType(view, ny, li) == 2) // NY generalizes LibertyIsland
    assert(TdhProb.relType(view, la, li) == 3)
    assert(TdhProb.relType(view, li, ny) == 3) // a descendant is NOT a generalized value
  }

  test("argmaxTruth breaks ties toward the deeper candidate") {
    val ds = Fixtures.table1World()
    val view = ds.views(0)
    val mu = Array.fill(view.nCands)(1.0 / view.nCands)
    assert(view.cands(TdhProb.argmaxTruth(view, mu)) == LibertyIsland)
  }

  // ---- EM end-to-end -------------------------------------------------------

  test("TDH resolves Table 1: Statue of Liberty on Liberty Island, Big Ben in London") {
    val ds = Fixtures.table1World()
    val res = TdhLocal.run(ds.views, empty(ds))
    val truths = res.truthValues(ds.views)
    assert(truths(0) == LibertyIsland)
    assert(truths(1) == London)
  }

  test("mu is a probability distribution for every object") {
    val ds = Fixtures.table1World()
    val res = TdhLocal.run(ds.views, empty(ds))
    res.mu.foreach { m =>
      assert(math.abs(m.sum - 1.0) < 1e-6)
      m.foreach(p => assert(p >= 0 && p <= 1 + 1e-9))
    }
  }

  test("phi and psi are probability distributions") {
    val ds = Fixtures.table1World()
    val log = empty(ds)
    log.add(0, 0, ds.views(0).candIndex(LibertyIsland))
    log.add(1, 0, ds.views(1).candIndex(London))
    val res = TdhLocal.run(ds.views, log)
    (res.phi.values ++ res.psi.values).foreach { p =>
      assert(p.length == 3 && math.abs(p.sum - 1.0) < 1e-6)
    }
    assert(res.psi.contains(0))
  }

  test("muNum/muDen are consistent with mu (N/D of Eq. 9)") {
    val ds = Fixtures.table1World()
    val res = TdhLocal.run(ds.views, empty(ds))
    for (o <- 0 until ds.numObjects; j <- 0 until ds.views(o).nCands)
      assert(math.abs(res.muNum(o)(j) / res.muDen(o) - res.mu(o)(j)) < 1e-9)
  }

  test("the generalizing source gets high phi2, the exact source high phi1, the bad one high phi3") {
    val ds = Fixtures.table1World(extraObjects = 40)
    val res = TdhLocal.run(ds.views, empty(ds))
    assert(res.phi(1)(0) > 0.6, s"exact source phi=${res.phi(1).toSeq}")
    assert(res.phi(0)(1) > 0.4, s"generalizing source phi=${res.phi(0).toSeq}")
    assert(res.phi(2)(2) > 0.5, s"wrong source phi=${res.phi(2).toSeq}")
  }

  test("worker answers shift the confidence toward the answered value") {
    val ds = Fixtures.flatWorld()
    val before = TdhLocal.run(ds.views, empty(ds))
    val log = empty(ds)
    // two confident workers vote London for object 1 (tied 'London' vs 'Manchester'?)
    val view = ds.views(1)
    log.add(1, 0, view.candIndex(London))
    log.add(1, 1, view.candIndex(London))
    val after = TdhLocal.run(ds.views, log)
    val lIdx = view.candIndex(London)
    assert(after.mu(1)(lIdx) > before.mu(1)(lIdx))
    assert(after.truthValues(ds.views)(1) == London)
  }

  test("EM is deterministic") {
    val ds = Fixtures.table1World()
    val a = TdhLocal.run(ds.views, empty(ds))
    val b = TdhLocal.run(ds.views, empty(ds))
    for (o <- 0 until ds.numObjects)
      assert(a.mu(o).toSeq == b.mu(o).toSeq)
  }

  test("TDH beats VOTE on a generated BirthPlaces-like dataset (the paper's headline)") {
    val ds = TruthDataGen.generate(TruthDataGen.birthPlacesConfig.copy(numObjects = 600, targetRecords = 1351, seed = 3))
    val tdh = TdhLocal.run(ds.views, empty(ds))
    val tdhAcc = Metrics.accuracy(ds, tdh.truthValues(ds.views))
    val vote = new repro.baselines.VoteInference().infer(ds.views, empty(ds))
    val voteAcc = Metrics.accuracy(ds, vote.truthValues)
    assert(tdhAcc > voteAcc, s"tdh=$tdhAcc vote=$voteAcc")
    assert(tdhAcc > 0.75, s"tdh=$tdhAcc")
  }

  test("TDH recovers planted source trustworthiness directionally") {
    val cfg = TruthDataGen.birthPlacesConfig.copy(numObjects = 800, targetRecords = 5000, seed = 11)
    val ds = TruthDataGen.generate(cfg)
    val planted = TruthDataGen.sourcePhis(cfg)
    val res = TdhLocal.run(ds.views, empty(ds))
    // correlation between planted and estimated phi1 should be clearly positive
    val pairs = res.phi.toSeq.map { case (s, p) => (planted(s)._1, p(0)) }
    val corr = pearson(pairs)
    assert(corr > 0.6, s"corr=$corr pairs=$pairs")
  }

  test("sparse source and worker ids give the same result as dense ones") {
    val srcOf = Map(0 -> 3, 1 -> 900, 2 -> 40, 3 -> 1)
    val wkrOf = Map(0 -> 7, 1 -> 1000)
    val dense = Fixtures.table1World()
    val sparse = dense.copy(records = dense.records.map(r => r.copy(source = srcOf(r.source))),
      numSources = 1001)
    def log(ds: TdDataset, wkr: Int => Int) = {
      val l = empty(ds)
      l.add(0, wkr(0), ds.views(0).candIndex(LibertyIsland))
      l.add(0, wkr(1), ds.views(0).candIndex(NY))
      l.add(1, wkr(1), ds.views(1).candIndex(London))
      l
    }
    val a = TdhLocal.run(dense.views, log(dense, identity))
    val b = TdhLocal.run(sparse.views, log(sparse, wkrOf))
    for (o <- 0 until dense.numObjects) assert(a.mu(o).toSeq == b.mu(o).toSeq, s"obj=$o")
    assert(b.phi.keySet == Set(3, 900, 40, 1))
    assert(b.psi.keySet == Set(7, 1000))
    for ((s, p) <- a.phi) assert(b.phi(srcOf(s)).toSeq == p.toSeq, s"source $s")
    for ((w, p) <- a.psi) assert(b.psi(wkrOf(w)).toSeq == p.toSeq, s"worker $w")
  }

  test("the result reports iterations, the final delta and convergence") {
    val ds = Fixtures.table1World()
    val res = TdhLocal.run(ds.views, empty(ds))
    assert(res.converged && res.iterations < 100 && res.finalDelta <= 1e-6, res)
    val capped = TdhLocal.run(ds.views, empty(ds), TdhHyper(maxIters = 3, tol = 0.0))
    assert(capped.iterations == 3 && !capped.converged && capped.finalDelta > 0.0)
    val none = TdhLocal.run(ds.views, empty(ds), TdhHyper(maxIters = 0))
    assert(none.iterations == 0 && !none.converged)
  }

  // ---- golden outputs ------------------------------------------------------
  // 64-bit digests of the exact output bits of TdhLocal.run on the calibrated
  // datasets, and of the plain EM map at a fixed 10 evaluations. Any change to
  // the loop order or to a floating-point expression of the EM shows up here;
  // a refactor of TdhLocal must keep them.

  private lazy val goldenData = Seq("BirthPlaces" -> TruthDataGen.birthPlaces(), "Heritages" -> TruthDataGen.heritages())

  private def digest(res: TdhResult): Long = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h = (h ^ x) * 0x100000001b3L; h ^= h >>> 29 }
    def mixAll(xs: Array[Double]): Unit = xs.foreach(x => mix(java.lang.Double.doubleToLongBits(x)))
    res.mu.foreach(mixAll)
    res.muNum.foreach(mixAll)
    mixAll(res.muDen)
    for (trust <- Seq(res.phi, res.psi); (id, p) <- trust.toSeq.sortBy(_._1)) { mix(id.toLong); mixAll(p) }
    res.truthIdx.foreach(i => mix(i.toLong))
    h
  }

  /** (digest, EM map evaluations) per dataset and case. */
  private val golden: Map[(String, String), (Long, Int)] = Map(
    ("BirthPlaces", "empty log") -> (-6652824002454232726L, 46),
    ("BirthPlaces", "3-round crowd log") -> (-6614726257934384366L, 46),
    ("BirthPlaces", "plain maxIters=10 tol=0") -> (-7917337343673983475L, 10),
    ("Heritages", "empty log") -> (3216911688802290254L, 54),
    ("Heritages", "3-round crowd log") -> (-2279070848270635443L, 48),
    ("Heritages", "plain maxIters=10 tol=0") -> (5735584777864672750L, 10),
  )

  private def plain(ds: TdDataset, log: AnswerLog, hyper: TdhHyper) =
    TdhLocal.em(ds.views, log, hyper, None, accelerate = false)

  test("TdhLocal output bits match the golden digests") {
    val got = for ((name, ds) <- goldenData; (label, res) <- Seq(
        "empty log" -> TdhLocal.run(ds.views, empty(ds)),
        "3-round crowd log" -> TdhLocal.run(ds.views, crowdLogs(name)),
        "plain maxIters=10 tol=0" -> plain(ds, empty(ds), TdhHyper(maxIters = 10, tol = 0.0))._1))
      yield (name, label) -> (digest(res), res.iterations)
    assert(got.toMap == golden)
  }

  private lazy val crowdLogs: Map[String, AnswerLog] = goldenData.map { case (name, ds) => name -> Fixtures.crowdLog(ds) }.toMap

  // ---- objective, acceleration and warm start ------------------------------

  private def logsOf(name: String, ds: TdDataset) = Seq("empty log" -> empty(ds), "3-round crowd log" -> crowdLogs(name))

  test("the plain EM objective never goes down over 150 iterations") {
    for ((name, ds) <- goldenData; (label, log) <- logsOf(name, ds)) {
      val objective = plain(ds, log, TdhHyper(maxIters = 150, tol = 0.0))._2.steps.map(_.objective)
      assert(objective.length == 150)
      for (i <- 1 until objective.length)
        assert(objective(i) >= objective(i - 1), s"$name, $label: L drops at iteration $i: ${objective(i - 1)} -> ${objective(i)}")
    }
  }

  test("SQUAREM keeps an extrapolation only if it scores at least L(theta1), and never lowers L at cycle starts") {
    for ((name, ds) <- goldenData; (label, log) <- logsOf(name, ds)) {
      val steps = TdhLocal.em(ds.views, log, TdhHyper(), None, accelerate = true)._2.steps
      assert(steps.map(_.phase).take(6) == Seq(0, 1, 2, 0, 1, 2))
      for (i <- steps.indices if steps(i).phase == 2) {
        assert(steps(i - 1).phase == 1)
        assert(steps(i).kept == (steps(i).objective >= steps(i - 1).objective), s"$name, $label: step $i")
      }
      // up to the rounding of a sum over ~20k claims (relative 1e-12)
      val starts = steps.filter(_.phase == 0).map(_.objective)
      for (i <- 1 until starts.length)
        assert(starts(i) >= starts(i - 1) - 1e-12 * math.abs(starts(i - 1)), s"$name, $label: cycle $i")
    }
  }

  /** Plain EM taken to max |Δμ| ≤ 1e-13: the fixed point the gates compare to. */
  private def fixedPoint(ds: TdDataset, log: AnswerLog): TdhResult = {
    val res = plain(ds, log, TdhHyper(maxIters = 100000, tol = 1e-13))._1
    assert(res.converged)
    res
  }

  /** μ, φ and ψ within `tol` of `want`, and identical truths. */
  private def assertNear(got: TdhResult, want: TdhResult, tol: Double, clue: String): Unit = {
    for (o <- want.mu.indices; j <- want.mu(o).indices)
      assert(math.abs(got.mu(o)(j) - want.mu(o)(j)) <= tol, s"$clue: mu($o)($j)")
    for ((g, w) <- Seq(got.phi -> want.phi, got.psi -> want.psi)) {
      assert(g.keySet == w.keySet, clue)
      for ((a, p) <- w; t <- 0 until 3) assert(math.abs(g(a)(t) - p(t)) <= tol, s"$clue: actor $a")
    }
    assert(got.truthIdx.toSeq == want.truthIdx.toSeq, clue)
  }

  test("cold and warm-started runs converge within 1e-4 of the EM fixed point with its truths") {
    for ((name, ds) <- goldenData) {
      val logs = logsOf(name, ds)
      val cold = logs.map { case (_, log) => TdhLocal.run(ds.views, log) }
      for (((label, log), i) <- logs.zipWithIndex) {
        val ref = fixedPoint(ds, log)
        // warm: started from the other log's result
        val warm = TdhLocal.run(ds.views, log, init = Some(cold(1 - i)))
        for ((kind, res) <- Seq("cold" -> cold(i), "warm" -> warm)) {
          assert(res.converged && res.iterations < 100, s"$name, $label, $kind: ${res.iterations} evaluations")
          assertNear(res, ref, 1e-4, s"$name, $label, $kind")
        }
      }
    }
  }

  test("a warm start copies mu and trust by id, and new actors start at the prior mean") {
    val ds = Fixtures.table1World()
    val prev = TdhLocal.run(ds.views, empty(ds))
    val log = empty(ds)
    log.add(0, 42, ds.views(0).candIndex(LibertyIsland))
    val hyper = TdhHyper(maxIters = 0)
    val start = TdhLocal.run(ds.views, log, hyper, init = Some(prev))
    for (o <- 0 until ds.numObjects) assert(start.mu(o).toSeq == prev.mu(o).toSeq)
    for ((s, p) <- prev.phi) assert(start.phi(s).toSeq == p.toSeq)
    assert(start.psi(42).toSeq == hyper.betaArr.map(_ / hyper.betaArr.sum).toSeq)
    val other = Fixtures.flatWorld()
    intercept[IllegalArgumentException](TdhLocal.run(other.views, empty(other), init = Some(prev)))
  }

  private def pearson(xs: Seq[(Double, Double)]): Double = {
    val n = xs.size
    val (mx, my) = (xs.map(_._1).sum / n, xs.map(_._2).sum / n)
    val cov = xs.map { case (a, b) => (a - mx) * (b - my) }.sum
    val sx = math.sqrt(xs.map(p => sq(p._1 - mx)).sum)
    val sy = math.sqrt(xs.map(p => sq(p._2 - my)).sum)
    cov / math.max(1e-12, sx * sy)
  }
  private def sq(x: Double) = x * x
}
