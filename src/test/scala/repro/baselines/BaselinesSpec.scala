package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.Fixtures._
import repro.data.{AnswerLog, ClaimTable, ObjectView, TdDataset, TruthDataGen}
import repro.eval.Metrics

class BaselinesSpec extends AnyFunSuite {

  private def empty(ds: TdDataset) = new AnswerLog(ds.numObjects)

  private lazy val small = TruthDataGen.generate(
    TruthDataGen.birthPlacesConfig.copy(numObjects = 400, targetRecords = 1200, hierNodes = 600, seed = 21))

  private def allInference(ds: TdDataset): Seq[TruthInference] = Seq(
    new TdhInference(),
    new VoteInference(),
    new LcaInference(),
    new AsumsInference(),
    new DocsInference(ds.hierarchy),
    new MdcInference(),
    new AccuInference(popularityFalse = false),
    new AccuInference(popularityFalse = true),
    new LfcInference(),
    new CrhInference(),
  )

  test("every inference algorithm returns valid candidate indices and normalized mu") {
    val ds = Fixtures.table1World()
    for (alg <- allInference(ds)) {
      val st = alg.infer(ds.views, empty(ds))
      assert(st.truthIdx.length == ds.numObjects, alg.name)
      for (o <- 0 until ds.numObjects) {
        assert(st.truthIdx(o) >= 0 && st.truthIdx(o) < ds.views(o).nCands, s"${alg.name} obj=$o")
        assert(math.abs(st.mu(o).sum - 1.0) < 1e-6, s"${alg.name} mu sum obj=$o = ${st.mu(o).sum}")
        st.mu(o).foreach(p => assert(p >= -1e-12 && p <= 1 + 1e-9, s"${alg.name} mu out of range"))
      }
    }
  }

  test("every inference algorithm is deterministic") {
    val ds = Fixtures.table1World()
    for (alg <- allInference(ds)) {
      val a = alg.infer(ds.views, empty(ds))
      val b = alg.infer(ds.views, empty(ds))
      assert(a.truthIdx.sameElements(b.truthIdx), alg.name)
    }
  }

  test("every inference algorithm clears a sanity accuracy floor on generated data") {
    for (alg <- allInference(small)) {
      val st = alg.infer(small.views, empty(small))
      val acc = Metrics.accuracy(small, st.truthValues)
      assert(acc > 0.45, s"${alg.name} accuracy=$acc")
    }
  }

  test("TDH has the best accuracy among all algorithms on generated data (Table 3 shape)") {
    val accs = allInference(small).map { alg =>
      alg.name -> Metrics.accuracy(small, alg.infer(small.views, empty(small)).truthValues)
    }
    val tdh = accs.find(_._1 == "TDH").get._2
    for ((name, acc) <- accs if name != "TDH")
      assert(tdh >= acc - 1e-9, s"TDH=$tdh should beat $name=$acc")
  }

  test("VOTE picks the majority value and breaks ties toward the deeper candidate") {
    val flat = Fixtures.flatWorld()
    val st = new VoteInference().infer(flat.views, empty(flat))
    assert(st.truthValues.toSeq == Seq(LibertyIsland, London, LA))
  }

  test("VOTE counts crowd answers as votes") {
    val flat = Fixtures.flatWorld()
    val log = empty(flat)
    val v1 = flat.views(1) // London vs Manchester: 2-1 London
    log.add(1, 0, v1.candIndex(Manchester))
    log.add(1, 1, v1.candIndex(Manchester))
    val st = new VoteInference().infer(flat.views, log)
    assert(st.truthValues(1) == Manchester) // now 3-2 Manchester
  }

  test("LCA resolves the easy fixture reasonably (it cannot credit generalized claims)") {
    val ds = Fixtures.table1World(extraObjects = 30)
    val st = new LcaInference().infer(ds.views, empty(ds))
    val acc = Metrics.accuracy(ds, st.truthValues)
    // the generalizing source looks 'dishonest' to LCA, so accuracy trails TDH
    assert(acc > 0.7, s"LCA accuracy on easy fixture=$acc")
    val tdhAcc = Metrics.accuracy(ds, new TdhInference().infer(ds.views, empty(ds)).truthValues)
    assert(tdhAcc >= acc, s"tdh=$tdhAcc lca=$acc")
  }

  test("ASUMS picks a generalized value when specific support is below the threshold") {
    // 1 specific claim vs 3 generalized claims: threshold keeps the general value
    val recs = Vector(
      repro.data.Record(0, 0, LibertyIsland),
      repro.data.Record(0, 1, NY), repro.data.Record(0, 2, NY), repro.data.Record(0, 3, NY),
    )
    val ds = TdDataset(Fixtures.geo, 1, 4, recs, Array(LibertyIsland))
    val st = new AsumsInference(threshold = 0.9).infer(ds.views, empty(ds))
    assert(st.truthValues(0) == NY)
  }

  test("ASUMS with a low threshold keeps the most specific supported value") {
    val recs = Vector(
      repro.data.Record(0, 0, LibertyIsland), repro.data.Record(0, 1, LibertyIsland),
      repro.data.Record(0, 2, NY),
    )
    val ds = TdDataset(Fixtures.geo, 1, 3, recs, Array(LibertyIsland))
    val st = new AsumsInference(threshold = 0.5).infer(ds.views, empty(ds))
    assert(st.truthValues(0) == LibertyIsland)
  }

  test("DOCS maps objects to top-level hierarchy domains") {
    val ds = Fixtures.table1World()
    val d0 = Domains.topLevelDomain(ds.hierarchy)(ds.views, 0) // Statue of Liberty: USA claims dominate
    val d1 = Domains.topLevelDomain(ds.hierarchy)(ds.views, 1) // Big Ben: UK claims dominate
    assert(d0 == USA)
    assert(d1 == UK)
  }

  test("ACCU copy detection flags sources that share false values, not truth-tellers") {
    // sources 0/1 independently claim the truth; 2/3 always copy the same wrong value
    val recs = (0 until 30).flatMap { o =>
      val t = if (o % 2 == 0) London else Manchester
      val wrong = if (o % 2 == 0) Manchester else London
      Vector(
        repro.data.Record(o, 0, t), repro.data.Record(o, 1, t),
        repro.data.Record(o, 2, wrong), repro.data.Record(o, 3, wrong),
      )
    }.toVector
    val ds = TdDataset(Fixtures.geo, 30, 4, recs, Array.tabulate(30)(o => if (o % 2 == 0) London else Manchester))
    // with the truth fixed at gold, kf is maximal for the copier pair
    val truthIdx = Array.tabulate(30)(o => ds.views(o).candIndex(ds.gold(o)))
    val dep = new AccuInference(popularityFalse = false).dependenceFor(ds.views, truthIdx)
    val copiers = dep(((false, 2), (false, 3)))
    val honest = dep(((false, 0), (false, 1)))
    assert(copiers > 0.9, s"copier dependence=$copiers")
    assert(copiers > honest, s"copiers=$copiers honest=$honest")
  }

  test("ACCU resolves contested objects when honest sources have corroborating history") {
    // 40 uncontested objects raise the honest sources' accuracy; on 20
    // contested objects 3 honest sources face 3 copiers sharing a wrong value
    val recs = Vector.newBuilder[repro.data.Record]
    for (o <- 0 until 40; s <- 0 until 3) recs += repro.data.Record(o, s, London)
    for (o <- 40 until 60) {
      for (s <- 0 until 3) recs += repro.data.Record(o, s, London)
      for (s <- 3 until 6) recs += repro.data.Record(o, s, Manchester)
    }
    val ds = TdDataset(Fixtures.geo, 60, 6, recs.result(), Array.fill(60)(London))
    val st = new AccuInference(popularityFalse = false).infer(ds.views, empty(ds))
    val acc = Metrics.accuracy(ds, st.truthValues)
    assert(acc > 0.9, s"accuracy=$acc")
  }

  test("LFC-MT and LTM produce non-empty truth sets containing a candidate value") {
    val ds = Fixtures.table1World(extraObjects = 10)
    for (alg <- Seq(LfcMt, Ltm)) {
      val sets = alg.inferSets(ds.views, empty(ds))
      assert(sets.length == ds.numObjects)
      sets.zipWithIndex.foreach { case (s, o) =>
        assert(s.nonEmpty, s"${alg.name} empty set for $o")
        assert(s.subsetOf(ds.views(o).cands.toSet), s"${alg.name} non-candidate value")
      }
    }
  }

  test("DART returns high-recall sets (supersets of single best value)") {
    val ds = Fixtures.table1World(extraObjects = 10)
    val dart = new DartInference(Domains.topLevelDomain(ds.hierarchy))
    val sets = dart.inferSets(ds.views, empty(ds))
    sets.zipWithIndex.foreach { case (s, o) => assert(s.nonEmpty, s"obj $o") }
    // DART with its low threshold should usually output more values than LTM
    val ltmSets = Ltm.inferSets(ds.views, empty(ds))
    assert(sets.map(_.size).sum >= ltmSets.map(_.size).sum)
  }

  test("multi-truth expansion of single-truth output scores high precision for TDH") {
    val sets = new TdhInference().infer(small.views, empty(small)).truthValues
      .map(v => Metrics.multiTruthSet(small.hierarchy, v))
    val (p, r, f1) = Metrics.multiTruthPRF(small, sets)
    assert(p > 0.7 && r > 0.6 && f1 > 0.65, s"p=$p r=$r f1=$f1")
  }

  test("answers influence all EM baselines") {
    val flat = Fixtures.flatWorld()
    val v1 = flat.views(1)
    val log = empty(flat)
    (0 until 6).foreach(w => log.add(1, w, v1.candIndex(Manchester)))
    for (alg <- Seq(new LcaInference(), new MdcInference(), new CrhInference(), new LfcInference())) {
      val st = alg.infer(flat.views, log)
      assert(st.truthValues(1) == Manchester, s"${alg.name} ignored crowd answers")
    }
  }

  /** Wraps a worker model and records each iteration's max |Δμ|, read from
    * the μ_o the loop hands to `collect`.
    */
  private final class DeltaRecorder(inner: BaselineEm.Model, views: Array[ObjectView])
      extends BaselineEm.Model {
    private val prev = views.map(v => Array.fill(v.nCands)(1.0 / v.nCands))
    private var delta = 0.0
    var deltas = Vector.empty[Double]
    def addLogLik(o: Int, a: Int, u: Int, logMu: Array[Double]): Unit = inner.addLogLik(o, a, u, logMu)
    def collect(o: Int, a: Int, u: Int, mu: Array[Double]): Unit = {
      for (v <- mu.indices) delta = math.max(delta, math.abs(mu(v) - prev(o)(v)))
      mu.copyToArray(prev(o))
      inner.collect(o, a, u, mu)
    }
    def mStep(): Unit = { deltas :+= delta; delta = 0.0; inner.mStep() }
    def workerAcc: Map[Int, Double] = inner.workerAcc
  }

  test("LCA, DOCS, MDC and LFC stop at the first iteration with max |Δμ| <= tol, within 50, and report it") {
    // On the Table 1 world the first iteration leaves μ uniform; the generated data takes more.
    for (ds <- Seq(Fixtures.table1World(), small);
         alg <- Seq(new LcaInference(), new DocsInference(ds.hierarchy), new MdcInference(), new LfcInference())) {
      val st = alg.infer(ds.views, empty(ds))
      var rec: DeltaRecorder = null
      val recorded = new BaselineEm {
        val name = alg.name
        private[baselines] def model(c: ClaimTable) = { rec = new DeltaRecorder(alg.model(c), ds.views); rec }
      }.infer(ds.views, empty(ds))
      assert(recorded.mu.indices.forall(o => recorded.mu(o).sameElements(st.mu(o))), alg.name)
      assert(st.iterations >= 1 && st.iterations <= BaselineEm.MaxIters && st.iterations == rec.deltas.size,
        s"${alg.name}: ${st.iterations} iterations, deltas ${rec.deltas}")
      assert(rec.deltas.init.forall(_ > BaselineEm.Tol), s"${alg.name} ran past convergence: ${rec.deltas}")
      assert(st.converged == (rec.deltas.last <= BaselineEm.Tol), s"${alg.name}: ${rec.deltas.last}")
    }
  }

  test("the baseline EM loop stops at 50 iterations, unconverged, when μ keeps moving") {
    val ds = Fixtures.flatWorld()
    var iter = 0
    val flip = new BaselineEm.Model { // all weight on candidate 0, then on the last one, and so on
      def addLogLik(o: Int, a: Int, u: Int, logMu: Array[Double]): Unit =
        logMu(if (iter % 2 == 0) 0 else logMu.length - 1) += 10.0
      def collect(o: Int, a: Int, u: Int, mu: Array[Double]): Unit = ()
      def mStep(): Unit = iter += 1
      def workerAcc: Map[Int, Double] = Map.empty
    }
    val st = new BaselineEm {
      val name = "flip"
      private[baselines] def model(c: ClaimTable) = flip
    }.infer(ds.views, empty(ds))
    assert(st.iterations == BaselineEm.MaxIters && iter == BaselineEm.MaxIters && !st.converged)
  }

  test("ACCU, POPACCU and CRH report their rounds and whether the last one settled μ") {
    val got = for {
      (name, ds) <- Seq("BirthPlaces" -> TruthDataGen.birthPlaces(), "Heritages" -> TruthDataGen.heritages())
      alg <- Seq(new AccuInference(popularityFalse = false), new AccuInference(popularityFalse = true), new CrhInference())
    } yield {
      val st = alg.infer(ds.views, empty(ds))
      (alg.name, name) -> (st.iterations, st.converged)
    }
    // 4 dependence estimates × 8 μ updates for ACCU and POPACCU, 15 rounds for CRH
    assert(got.toMap == Map(
      ("ACCU", "BirthPlaces") -> (32, true), ("POPACCU", "BirthPlaces") -> (32, true), ("CRH", "BirthPlaces") -> (15, true),
      ("ACCU", "Heritages") -> (32, false), ("POPACCU", "Heritages") -> (32, false), ("CRH", "Heritages") -> (15, true),
    ), got.mkString("\n"))
  }

  // 64-bit digests of the exact bits of LFC's μ and truths on the calibrated
  // datasets with an empty log. A change to LFC's loop order or to one of its
  // floating-point expressions shows up here.
  private def lfcDigest(st: InferState): Long = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h = (h ^ x) * 0x100000001b3L; h ^= h >>> 29 }
    st.mu.foreach(_.foreach(x => mix(java.lang.Double.doubleToLongBits(x))))
    st.truthIdx.foreach(i => mix(i.toLong))
    h
  }

  test("LFC output bits match the golden digests") {
    val got = for ((name, ds) <- Seq("BirthPlaces" -> TruthDataGen.birthPlaces(), "Heritages" -> TruthDataGen.heritages()))
      yield name -> lfcDigest(new LfcInference().infer(ds.views, empty(ds)))
    assert(got.toMap == Map("BirthPlaces" -> -6621199513121627394L, "Heritages" -> -8621982383887422796L))
  }

  // 64-bit digests of the exact output bits of every baseline on the
  // calibrated datasets, with an empty log and with the 3-round TDH+EAI log:
  // μ, truths and workerAcc by worker id for single-truth algorithms, the
  // posteriors of LFC-MT and LTM, DART's sets.
  private final class Digest {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h = (h ^ x) * 0x100000001b3L; h ^= h >>> 29 }
    def mix(x: Double): Unit = mix(java.lang.Double.doubleToLongBits(x))
  }

  private def digestOf(f: Digest => Unit): Long = { val d = new Digest; f(d); d.h }

  private def stateDigest(st: InferState): Long = digestOf { d =>
    st.mu.foreach(_.foreach(d.mix))
    st.truthIdx.foreach(i => d.mix(i.toLong))
    for ((w, acc) <- st.workerAcc.toSeq.sortBy(_._1)) { d.mix(w.toLong); d.mix(acc) }
  }

  private def baselineDigests(ds: TdDataset, log: AnswerLog): Seq[(String, Long)] =
    allInference(ds).filter(_.name != "TDH").map(alg => alg.name -> stateDigest(alg.infer(ds.views, log))) ++
      Seq(LfcMt, Ltm).map(alg => alg.name -> digestOf(d => alg.posteriors(ds.views, log).foreach(_.foreach(d.mix)))) :+
      "DART" -> digestOf { d =>
        new DartInference(Domains.topLevelDomain(ds.hierarchy)).inferSets(ds.views, log).foreach { s =>
          d.mix(s.size.toLong); s.toSeq.sorted.foreach(v => d.mix(v.toLong))
        }
      }

  /** Digests per algorithm: BirthPlaces empty log, BirthPlaces 3-round log,
    * Heritages empty log, Heritages 3-round log.
    */
  private val baselineGolden: Map[(String, String, String), Long] = Map(
    "ACCU" -> Seq(-8805072157363092448L, -6309151145392194918L, 8554365735632247751L, -5850103913595910210L),
    "ASUMS" -> Seq(-5312974351809247488L, 3199416770126658983L, 4345695034385515267L, -1819769591059925539L),
    "CRH" -> Seq(4170948655225647595L, 2270355356558021121L, -9097273473970486172L, -405945205899519856L),
    "DART" -> Seq(-1030874324726443178L, -1030874324726443178L, 2924505010480779157L, 2924505010480779157L),
    "DOCS" -> Seq(-7242716547464182125L, 6130798216338639486L, 6924522226372606235L, -3600983949678549310L),
    "LCA" -> Seq(1961702857383301044L, 2583604921905513750L, -3662820692387463421L, 8204838175351087508L),
    "LFC" -> Seq(-6621199513121627394L, -6985163970330219033L, -8621982383887422796L, 1352490043337781717L),
    "LFC-MT" -> Seq(1242410054479286243L, 1242410054479286243L, -3420787302594418003L, -3420787302594418003L),
    "LTM" -> Seq(264338229073573118L, 1776435489826690873L, -8336161509343338992L, 7750684103481983436L),
    "MDC" -> Seq(4239144824107614232L, -8453043579817002158L, 4109521323898792621L, 5290207084816174248L),
    "POPACCU" -> Seq(-6043421325979462439L, 4071347669302391694L, -776847415925628189L, 3098382804097223127L),
    "VOTE" -> Seq(-1545242746399923496L, 7553412937443910831L, 2506301263766403640L, -2012710984540291075L),
  ).flatMap { case (alg, hs) =>
    val cases = for (ds <- Seq("BirthPlaces", "Heritages"); log <- Seq("empty log", "3-round crowd log")) yield (alg, ds, log)
    cases.zip(hs)
  }

  test("every baseline's output bits match the golden digests") {
    val got = (for {
      (name, ds) <- Seq("BirthPlaces" -> TruthDataGen.birthPlaces(), "Heritages" -> TruthDataGen.heritages())
      (label, log) <- Seq("empty log" -> empty(ds), "3-round crowd log" -> Fixtures.crowdLog(ds))
      (alg, h) <- baselineDigests(ds, log)
    } yield (alg, name, label) -> h).toMap
    val wrong = got.filter { case (k, h) => !baselineGolden.get(k).contains(h) }
    assert(got.keySet == baselineGolden.keySet && wrong.isEmpty, wrong.toSeq.sorted.mkString("\n"))
  }
}
