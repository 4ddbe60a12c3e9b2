package repro.bench

import repro.SparkSpec
import repro.tables.{PaperNumbers, Tables}

/** Reproduces Table 3 (§5.2): Accuracy / GenAccuracy / AvgDistance of 10
  * truth-inference algorithms on both datasets, without crowdsourcing.
  * TDH additionally runs through the object-partitioned Spark EM.
  *
  * Shape checks (not absolute numbers — see EXPERIMENTS.md): TDH wins
  * Accuracy and AvgDistance on both datasets, as in the paper.
  */
class Table3Bench extends SparkSpec {

  private lazy val results = Tables.datasets().map { case (name, ds) =>
    val rows = Tables.table3(ds)
    val sparkRow = Tables.table3TdhSpark(spark, ds)
    (name, ds, rows, sparkRow)
  }

  test("Table 3: print paper-vs-measured rows") {
    for ((name, _, rows, sparkRow) <- results) {
      val paper = if (name == "BirthPlaces") PaperNumbers.table3BirthPlaces else PaperNumbers.table3Heritages
      Tables.printQualityTable(s"Table 3 — $name", rows :+ sparkRow, paper)
    }
  }

  test("Table 3 shape: TDH has the best Accuracy on both datasets") {
    for ((name, _, rows, _) <- results) {
      val tdh = rows.find(_.algorithm == "TDH").get
      for (r <- rows if r.algorithm != "TDH")
        assert(tdh.accuracy >= r.accuracy - 1e-9, s"$name: TDH=${tdh.accuracy} vs ${r.algorithm}=${r.accuracy}")
    }
  }

  test("Table 3 shape: TDH has the lowest AvgDistance on both datasets") {
    for ((name, _, rows, _) <- results) {
      val tdh = rows.find(_.algorithm == "TDH").get
      for (r <- rows if r.algorithm != "TDH")
        assert(tdh.avgDistance <= r.avgDistance + 1e-9, s"$name: TDH=${tdh.avgDistance} vs ${r.algorithm}=${r.avgDistance}")
    }
  }

  test("Table 3 shape: the Spark dataflow TDH matches the local TDH") {
    for ((name, _, rows, sparkRow) <- results) {
      val tdh = rows.find(_.algorithm == "TDH").get
      assert(math.abs(sparkRow.accuracy - tdh.accuracy) < 0.01,
        s"$name: spark=${sparkRow.accuracy} local=${tdh.accuracy}")
    }
  }

  test("Table 3 shape: every algorithm is worse on Heritages than on BirthPlaces (lower source accuracy)") {
    val bp = results.find(_._1 == "BirthPlaces").get._3
    val hg = results.find(_._1 == "Heritages").get._3
    val avgBp = bp.map(_.accuracy).sum / bp.size
    val avgHg = hg.map(_.accuracy).sum / hg.size
    assert(avgHg < avgBp, s"avg Heritages=$avgHg should be below avg BirthPlaces=$avgBp")
  }
}
