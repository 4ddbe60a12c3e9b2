package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}
import repro.crowd.SimWorkers
import repro.data.{Answer, AnswerLog, TdDataset, TruthDataGen}

/** Equivalence of the object-partitioned Spark EM ([[TdhSpark]]) with the
  * reference implementation ([[TdhLocal]]), its determinism and input checks,
  * plus DuckDB oracle checks of aggregations over the claims relation.
  */
class TdhSparkSpec extends SparkSpec {

  private def fixedIterHyper(n: Int) = TdhHyper(maxIters = n, tol = 0.0)

  /** The 120-object generated BirthPlaces-like dataset. */
  private lazy val generated = TruthDataGen.generate(
    TruthDataGen.birthPlacesConfig.copy(numObjects = 120, targetRecords = 420, hierNodes = 300, seed = 5))

  /** Answers of 3 simulated workers on every third object of `ds`. */
  private def workerLog(ds: TdDataset): AnswerLog = {
    val log = new AnswerLog(ds.numObjects)
    val workers = SimWorkers.uniform(3, 0.75, seed = 9)
    for (o <- 0 until ds.numObjects by 3; w <- workers.ids if (o / 3 + w) % 3 != 0)
      log.add(o, w, workers.answer(ds, w, o))
    log
  }

  private def muOf(run: TdhSpark.SparkRun): Map[(Int, Int), Double] =
    run.mu.collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
  private def trustOf(df: DataFrame): Map[Int, Seq[Double]] =
    df.collect().map(r => r.getInt(0) -> Seq(r.getDouble(1), r.getDouble(2), r.getDouble(3))).toMap
  /** The objects each partition of the run holds. */
  private def partitionObjects(run: TdhSpark.SparkRun): Seq[Set[Int]] =
    run.truth.rdd.mapPartitions(it => Iterator(it.map(_.getInt(0)).toSet)).collect().toSeq

  /** μ, φ and ψ within 1e-9 of `local`, and identical truths. */
  private def assertMatchesLocal(ds: TdDataset, local: TdhResult, run: TdhSpark.SparkRun, est: Array[Int]): Unit = {
    val mu = muOf(run)
    assert(mu.size == ds.views.map(_.nCands).sum)
    for (o <- 0 until ds.numObjects; j <- 0 until ds.views(o).nCands) {
      val got = mu((o, ds.views(o).cands(j)))
      assert(math.abs(got - local.mu(o)(j)) < 1e-9, s"mu mismatch obj=$o j=$j got=$got want=${local.mu(o)(j)}")
    }
    for ((df, want) <- Seq(run.phi -> local.phi, run.psi -> local.psi)) {
      val got = trustOf(df)
      assert(got.keySet == want.keySet)
      for ((a, p) <- want; t <- 0 until 3)
        assert(math.abs(got(a)(t) - p(t)) < 1e-9, s"trust mismatch actor=$a t=$t")
    }
    assert(est.toSeq == local.truthValues(ds.views).toSeq)
  }

  test("vote-count aggregation matches DuckDB (oracle)") {
    val ds = Fixtures.table1World()
    import spark.implicits._
    val records = ds.records.toDF()
    val counts = records.groupBy("obj", "value").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      counts,
      "SELECT CAST(obj AS INT) AS obj, CAST(value AS INT) AS value, COUNT(*) AS cnt " +
        "FROM records GROUP BY obj, value",
      "records" -> records,
    )
  }

  test("oracle validates a grouped aggregation over the claims relation") {
    import spark.implicits._
    val records = generated.records.toDF()
    val agg = records.groupBy("source").agg(
      count(lit(1)).as("cnt"),
      countDistinct("obj").as("objs"),
      avg("value").as("meanval"),
    )
    Oracle.assertEquivalent(
      agg,
      "SELECT CAST(source AS INT) AS source, COUNT(*) AS cnt, COUNT(DISTINCT obj) AS objs, " +
        "AVG(CAST(value AS INT)) AS meanval FROM records GROUP BY source",
      "records" -> records,
    )
  }

  test("oracle catches a wrong result") {
    import spark.implicits._
    val records = generated.records.toDF()
    val wrong = records.groupBy("source").agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        wrong,
        "SELECT CAST(source AS INT) AS source, COUNT(*) AS cnt FROM records GROUP BY source",
        "records" -> records,
      )
    }
  }

  test("TdhSpark mu equals TdhLocal mu after the same fixed iteration count (Table-1 world)") {
    val ds = Fixtures.table1World()
    val answers = new AnswerLog(ds.numObjects)
    answers.add(0, 0, ds.views(0).candIndex(Fixtures.LibertyIsland))
    answers.add(1, 1, ds.views(1).candIndex(Fixtures.Manchester))
    val hyper = fixedIterHyper(8)
    val local = TdhLocal.run(ds.views, answers, hyper)
    val (run, _) = TdhSpark.runOnDataset(spark, ds, answers, hyper, maxIters = 8)
    val sparkMu = run.mu.collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    for (o <- 0 until ds.numObjects; j <- 0 until ds.views(o).nCands) {
      val v = ds.views(o).cands(j)
      val got = sparkMu((o, v))
      assert(math.abs(got - local.mu(o)(j)) < 1e-9, s"mu mismatch obj=$o v=$v got=$got want=${local.mu(o)(j)}")
    }
  }

  test("TdhSpark phi/psi equal TdhLocal after the same fixed iteration count") {
    val ds = Fixtures.table1World()
    val answers = new AnswerLog(ds.numObjects)
    answers.add(0, 3, ds.views(0).candIndex(Fixtures.NY))
    val hyper = fixedIterHyper(6)
    val local = TdhLocal.run(ds.views, answers, hyper)
    val (run, _) = TdhSpark.runOnDataset(spark, ds, answers, hyper, maxIters = 6)
    val sparkPhi = run.phi.collect().map(r => r.getInt(0) -> Array(r.getDouble(1), r.getDouble(2), r.getDouble(3))).toMap
    val sparkPsi = run.psi.collect().map(r => r.getInt(0) -> Array(r.getDouble(1), r.getDouble(2), r.getDouble(3))).toMap
    for ((s, p) <- local.phi; t <- 0 until 3)
      assert(math.abs(sparkPhi(s)(t) - p(t)) < 1e-9, s"phi mismatch s=$s t=$t")
    for ((w, p) <- local.psi; t <- 0 until 3)
      assert(math.abs(sparkPsi(w)(t) - p(t)) < 1e-9, s"psi mismatch w=$w t=$t")
  }

  test("TdhSpark truth estimates equal TdhLocal on a generated dataset") {
    val ds = TruthDataGen.generate(
      TruthDataGen.birthPlacesConfig.copy(numObjects = 120, targetRecords = 420, hierNodes = 300, seed = 5))
    val answers = new AnswerLog(ds.numObjects)
    val hyper = fixedIterHyper(10)
    val local = TdhLocal.run(ds.views, answers, hyper)
    val (_, est) = TdhSpark.runOnDataset(spark, ds, answers, hyper, maxIters = 10)
    val localTruths = local.truthValues(ds.views)
    val mismatches = (0 until ds.numObjects).count(o => est(o) != localTruths(o))
    assert(mismatches == 0, s"$mismatches truth mismatches out of ${ds.numObjects}")
  }

  test("TdhSpark converges (iteration count below the cap) with default tolerance") {
    val ds = Fixtures.table1World()
    val (run, _) = TdhSpark.runOnDataset(spark, ds, new AnswerLog(ds.numObjects), TdhHyper(tol = 1e-4), maxIters = 40)
    assert(run.iterations < 40)
  }

  test("TdhSpark reports the final delta and convergence by the TdhLocal stopping rule") {
    val ds = Fixtures.table1World()
    val empty = new AnswerLog(ds.numObjects)
    for ((hyper, converges) <- Seq(TdhHyper(tol = 1e-4, maxIters = 40) -> true, fixedIterHyper(3) -> false)) {
      val local = TdhLocal.run(ds.views, empty, hyper)
      val (run, _) = TdhSpark.runOnDataset(spark, ds, empty, hyper, maxIters = hyper.maxIters)
      assert(run.converged == converges && local.converged == converges, hyper)
      assert(if (converges) run.finalDelta <= hyper.tol else run.finalDelta > 0.0, hyper)
      assert(run.iterations == local.iterations, hyper)
      assert(math.abs(run.finalDelta - local.finalDelta) < 1e-9, hyper)
    }
  }

  test("TdhSpark mu, phi, psi and truths equal TdhLocal with worker answers over several partitions") {
    val ds = generated
    val answers = workerLog(ds)
    assert(answers.totalAnswers > 0)
    val hyper = fixedIterHyper(10)
    val local = TdhLocal.run(ds.views, answers, hyper)
    val (run, est) = TdhSpark.runOnDataset(spark, ds, answers, hyper, maxIters = 10)
    val parts = partitionObjects(run)
    assert(parts.count(_.nonEmpty) >= 2)
    assert(parts.count(_.exists(answers.count(_) > 0)) >= 2, "answered objects must span partitions")
    assert(local.psi.size >= 2)
    assertMatchesLocal(ds, local, run, est)
  }

  test("TdhSpark with the default stopping rule takes the same SQUAREM path as TdhLocal") {
    val ds = generated
    val answers = workerLog(ds)
    val local = TdhLocal.run(ds.views, answers)
    val (run, est) = TdhSpark.runOnDataset(spark, ds, answers)
    assert(run.converged && local.converged)
    assert(run.iterations == local.iterations && run.iterations > 3)
    assert(math.abs(run.objective - local.objective) < 1e-9 * math.abs(local.objective))
    assertMatchesLocal(ds, local, run, est)
  }

  test("TdhSpark's maxIters only lowers the TdhHyper cap") {
    val ds = Fixtures.table1World()
    val empty = new AnswerLog(ds.numObjects)
    assert(TdhSpark.runOnDataset(spark, ds, empty, fixedIterHyper(4), maxIters = 40)._1.iterations == 4)
    assert(TdhSpark.runOnDataset(spark, ds, empty, fixedIterHyper(40), maxIters = 4)._1.iterations == 4)
  }

  test("TdhSpark runs are bit-identical") {
    val ds = generated
    val answers = workerLog(ds)
    def bits(run: TdhSpark.SparkRun) = (
      muOf(run).toSeq.sortBy(_._1).map(e => e._1 -> java.lang.Double.doubleToLongBits(e._2)),
      trustOf(run.phi).toSeq.sortBy(_._1).map(e => e._1 -> e._2.map(java.lang.Double.doubleToLongBits)),
    )
    val runs = Seq.fill(2)(TdhSpark.runOnDataset(spark, ds, answers, fixedIterHyper(5), maxIters = 5)._1)
    assert(bits(runs(0)) == bits(runs(1)))
  }

  test("TdhSpark equals TdhLocal when some partitions hold no object (Table-1 world)") {
    val full = Fixtures.table1World()
    val ds = TdDataset(full.hierarchy, 1, full.numSources, full.records.filter(_.obj == 0), full.gold.take(1))
    val answers = new AnswerLog(1)
    answers.add(0, 0, ds.views(0).candIndex(Fixtures.LibertyIsland))
    answers.add(0, 1, ds.views(0).candIndex(Fixtures.NY))
    val local = TdhLocal.run(ds.views, answers, fixedIterHyper(8))
    val (run, est) = TdhSpark.runOnDataset(spark, ds, answers, fixedIterHyper(8), maxIters = 8)
    assert(partitionObjects(run).exists(_.isEmpty))
    assertMatchesLocal(ds, local, run, est)
  }

  test("an answer that does not fit its object fails at ingestion, naming (obj, worker, value)") {
    import spark.implicits._
    val ds = Fixtures.table1World()
    val records = ds.records.toDF()
    def failure(answers: Answer*): String =
      intercept[IllegalArgumentException](TdhSpark.run(spark, records, answers.toDF(), ds.hierarchy, maxIters = 2))
        .getMessage
    // London is not a candidate of the Statue of Liberty
    assert(failure(Answer(0, 7, Fixtures.LibertyIsland), Answer(0, 9, Fixtures.London)).contains("(0, 9, 7)"))
    // object 99 has no records
    assert(failure(Answer(99, 4, Fixtures.NY)).contains(s"(99, 4, ${Fixtures.NY})"))
  }
}
