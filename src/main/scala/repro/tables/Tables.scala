package repro.tables

import org.apache.spark.sql.SparkSession
import repro.assign._
import repro.baselines._
import repro.core.{NumericDataset, TdhSpark}
import repro.crowd.{CrowdLoop, RoundTrace, SimWorkers}
import repro.data.{AnswerLog, StockGen, TdDataset, TruthDataGen}
import repro.eval.Metrics
import repro.numeric.NumericAlgorithms

/** Reproduction harness for the paper's evaluation tables (§5).
  *
  * Each `tableN` method computes our numbers; `PaperNumbers` holds the
  * published values so the bench suites and EXPERIMENTS.md can print them
  * side by side. Dataset substitutions are documented in DESIGN.md.
  */
object Tables {

  // ---------------------------------------------------------------- datasets

  def datasets(): Seq[(String, TdDataset)] = Seq(
    "BirthPlaces" -> TruthDataGen.birthPlaces(),
    "Heritages" -> TruthDataGen.heritages(),
  )

  def inferenceAlgorithms(ds: TdDataset): Seq[TruthInference] = Seq(
    new TdhInference(),
    new VoteInference(),
    new LcaInference(),
    new DocsInference(ds.hierarchy),
    new AsumsInference(),
    new MdcInference(),
    new AccuInference(popularityFalse = false),
    new AccuInference(popularityFalse = true),
    new LfcInference(),
    new CrhInference(),
  )

  // ---------------------------------------------------------------- Table 3

  final case class QualityRow(algorithm: String, accuracy: Double, genAccuracy: Double, avgDistance: Double)

  /** Table 3: truth inference without crowdsourcing. */
  def table3(ds: TdDataset): Seq[QualityRow] =
    inferenceAlgorithms(ds).map { alg =>
      val est = alg.infer(ds.views, new AnswerLog(ds.numObjects)).truthValues
      QualityRow(alg.name, Metrics.accuracy(ds, est), Metrics.genAccuracy(ds, est), Metrics.avgDistance(ds, est))
    }

  /** TDH through the object-partitioned Spark EM (same kernel, distributed path). */
  def table3TdhSpark(spark: SparkSession, ds: TdDataset): QualityRow = {
    val (_, est) = TdhSpark.runOnDataset(spark, ds, new AnswerLog(ds.numObjects))
    QualityRow("TDH(spark)", Metrics.accuracy(ds, est), Metrics.genAccuracy(ds, est), Metrics.avgDistance(ds, est))
  }

  // ---------------------------------------------------------------- Table 4

  final case class ComboResult(
      inference: String,
      assignment: String,
      accuracyAt50: Double,
      trace: Vector[RoundTrace],
  )

  /** The feasible (inference × assignment) combinations of Table 4. */
  def combos(ds: TdDataset): Seq[(TruthInference, Assigner)] = {
    def tdh = new TdhInference()
    def docs = new DocsInference(ds.hierarchy)
    def lca = new LcaInference()
    def popaccu = new AccuInference(popularityFalse = true)
    def accu = new AccuInference(popularityFalse = false)
    Seq(
      (tdh, new EaiAssigner()), (tdh, new QascaAssigner()), (tdh, new MaxEntropyAssigner()),
      (docs, new MbAssigner()), (docs, new QascaAssigner()), (docs, new MaxEntropyAssigner()),
      (lca, new QascaAssigner()), (lca, new MaxEntropyAssigner()),
      (popaccu, new QascaAssigner()), (popaccu, new MaxEntropyAssigner()),
      (accu, new QascaAssigner()), (accu, new MaxEntropyAssigner()),
      (new AsumsInference(), new MaxEntropyAssigner()),
      (new CrhInference(), new MaxEntropyAssigner()),
      (new MdcInference(), new MaxEntropyAssigner()),
      (new LfcInference(), new MaxEntropyAssigner()),
      (new VoteInference(), new MaxEntropyAssigner()),
    )
  }

  /** Table 4: accuracy after `rounds` rounds of simulated crowdsourcing
    * (10 workers, 5 questions each, π_p = 0.75).
    */
  def table4(ds: TdDataset, rounds: Int = 50, piP: Double = 0.75, seed: Long = 123): Seq[ComboResult] =
    combos(ds).map { case (inf, asg) =>
      val workers = SimWorkers.uniform(10, piP, seed)
      val (trace, _) = CrowdLoop.run(ds, inf, asg, workers, rounds)
      ComboResult(inf.name, asg.name, trace.last.accuracy, trace)
    }

  // ---------------------------------------------------------------- Table 5

  final case class PrfRow(algorithm: String, precision: Double, recall: Double, f1: Double)

  /** Table 5: multi-truth evaluation. Single-truth estimates are expanded to
    * the value plus its non-root ancestors (§5.7); LFC-MT/DART/LTM emit sets.
    */
  def table5(ds: TdDataset): Seq[PrfRow] = {
    val log = new AnswerLog(ds.numObjects)
    val single = inferenceAlgorithms(ds).map { alg =>
      val sets = alg.infer(ds.views, log).truthValues.map(v => Metrics.multiTruthSet(ds.hierarchy, v))
      val (p, r, f1) = Metrics.multiTruthPRF(ds, sets)
      PrfRow(alg.name, p, r, f1)
    }
    // §5.7: "we treat the ancestors of v and v itself as the multi-truths of
    // v" — applied to multi-truth outputs as well, so every chosen value is
    // expanded with its non-root ancestors before scoring.
    def expand(sets: Array[Set[Int]]): Array[Set[Int]] =
      sets.map(_.flatMap(v => Metrics.multiTruthSet(ds.hierarchy, v)))
    val multi = Seq[(String, Array[Set[Int]])](
      "LFC-MT" -> LfcMt.inferSets(ds.views, log),
      "DART" -> new DartInference(Domains.topLevelDomain(ds.hierarchy)).inferSets(ds.views, log),
      "LTM" -> Ltm.inferSets(ds.views, log),
    ).map { case (name, sets) =>
      val (p, r, f1) = Metrics.multiTruthPRF(ds, expand(sets))
      PrfRow(name, p, r, f1)
    }
    single ++ multi
  }

  // ---------------------------------------------------------------- Table 6

  final case class NumericRow(algorithm: String, attr: String, mae: Double, re: Double)

  /** Table 6: numeric truth discovery on the synthetic stock dataset. */
  def table6(cfg: StockGen.Config = StockGen.Config()): Seq[NumericRow] =
    StockGen.attrs.flatMap { attr =>
      val ds = StockGen.generate(attr, cfg)
      def row(name: String, est: Array[Double]) =
        NumericRow(name, attr.name, Metrics.mae(ds.gold, est), Metrics.relativeError(ds.gold, est))
      Seq(
        row("TDH", NumericAlgorithms.tdh(ds)),
        row("LCA", NumericAlgorithms.lca(ds)),
        row("CRH", NumericAlgorithms.crh(ds)),
        row("CATD", NumericAlgorithms.catd(ds)),
        row("VOTE", NumericAlgorithms.vote(ds)),
        row("MEAN", NumericAlgorithms.mean(ds)),
      )
    }

  // ------------------------------------------------------------- formatting

  def fmt(x: Double): String = f"$x%.4f"

  def printQualityTable(title: String, rows: Seq[QualityRow], paper: Map[String, (Double, Double, Double)]): Unit = {
    println(s"== $title ==")
    println(f"${"algorithm"}%-12s ${"Acc"}%8s ${"(paper)"}%8s ${"GenAcc"}%8s ${"(paper)"}%8s ${"AvgDist"}%8s ${"(paper)"}%8s")
    rows.foreach { r =>
      val p = paper.get(r.algorithm)
      def pp(f: ((Double, Double, Double)) => Double) = p.map(v => fmt(f(v))).getOrElse("-")
      println(f"${r.algorithm}%-12s ${fmt(r.accuracy)}%8s ${pp(_._1)}%8s ${fmt(r.genAccuracy)}%8s ${pp(_._2)}%8s ${fmt(r.avgDistance)}%8s ${pp(_._3)}%8s")
    }
  }
}

/** The published evaluation numbers, used for paper-vs-ours printouts. */
object PaperNumbers {

  /** Table 3: algorithm -> (Accuracy, GenAccuracy, AvgDistance). */
  val table3BirthPlaces: Map[String, (Double, Double, Double)] = Map(
    "TDH" -> (0.8913, 0.8988, 0.3151), "VOTE" -> (0.7900, 0.8924, 0.4961),
    "LCA" -> (0.8834, 0.8923, 0.3414), "DOCS" -> (0.8828, 0.8916, 0.3409),
    "ASUMS" -> (0.8543, 0.8571, 0.4573), "MDC" -> (0.8263, 0.8432, 0.5320),
    "ACCU" -> (0.8137, 0.8296, 0.6063), "POPACCU" -> (0.8133, 0.8300, 0.6070),
    "LFC" -> (0.8085, 0.8743, 0.4669), "CRH" -> (0.8083, 0.8271, 0.6120),
  )
  val table3Heritages: Map[String, (Double, Double, Double)] = Map(
    "TDH" -> (0.7414, 0.8726, 0.5210), "VOTE" -> (0.6892, 0.8994, 0.6382),
    "LCA" -> (0.6930, 0.8866, 0.6611), "DOCS" -> (0.6904, 0.8866, 0.6599),
    "ASUMS" -> (0.6229, 0.7414, 1.2000), "MDC" -> (0.7254, 0.8087, 0.6869),
    "ACCU" -> (0.5834, 0.7656, 1.0637), "POPACCU" -> (0.6561, 0.8586, 0.7554),
    "LFC" -> (0.6803, 0.8076, 0.8076), "CRH" -> (0.6841, 0.8828, 0.6688),
  )

  /** Table 4: (inference, assignment) -> accuracy after round 50. */
  val table4BirthPlaces: Map[(String, String), Double] = Map(
    ("TDH", "EAI") -> 0.9601, ("TDH", "QASCA") -> 0.9500, ("TDH", "ME") -> 0.9109,
    ("DOCS", "MB") -> 0.9052, ("DOCS", "QASCA") -> 0.9341, ("DOCS", "ME") -> 0.8842,
    ("LCA", "QASCA") -> 0.8823, ("LCA", "ME") -> 0.9089,
    ("POPACCU", "QASCA") -> 0.9295, ("POPACCU", "ME") -> 0.8987,
    ("ACCU", "QASCA") -> 0.8468, ("ACCU", "ME") -> 0.8257,
    ("ASUMS", "ME") -> 0.8700, ("CRH", "ME") -> 0.9000, ("MDC", "ME") -> 0.8254,
    ("LFC", "ME") -> 0.8287, ("VOTE", "ME") -> 0.8261,
  )
  val table4Heritages: Map[(String, String), Double] = Map(
    ("TDH", "EAI") -> 0.9304, ("TDH", "QASCA") -> 0.8999, ("TDH", "ME") -> 0.8884,
    ("DOCS", "MB") -> 0.7546, ("DOCS", "QASCA") -> 0.7661, ("DOCS", "ME") -> 0.7631,
    ("LCA", "QASCA") -> 0.7136, ("LCA", "ME") -> 0.8507,
    ("POPACCU", "QASCA") -> 0.7512, ("POPACCU", "ME") -> 0.8336,
    ("ACCU", "QASCA") -> 0.5796, ("ACCU", "ME") -> 0.5896,
    ("ASUMS", "ME") -> 0.7427, ("CRH", "ME") -> 0.8459, ("MDC", "ME") -> 0.7241,
    ("LFC", "ME") -> 0.7327, ("VOTE", "ME") -> 0.8634,
  )

  /** Table 5: algorithm -> (precision, recall, F1). */
  val table5BirthPlaces: Map[String, (Double, Double, Double)] = Map(
    "TDH" -> (0.899, 0.921, 0.910), "VOTE" -> (0.892, 0.804, 0.846),
    "LCA" -> (0.892, 0.913, 0.903), "DOCS" -> (0.892, 0.913, 0.902),
    "ASUMS" -> (0.857, 0.888, 0.872), "POPACCU" -> (0.847, 0.858, 0.852),
    "LFC" -> (0.874, 0.838, 0.856), "MDC" -> (0.844, 0.853, 0.848),
    "ACCU" -> (0.830, 0.842, 0.836), "CRH" -> (0.827, 0.833, 0.830),
    "LFC-MT" -> (0.763, 0.723, 0.742), "DART" -> (0.590, 0.855, 0.698),
    "LTM" -> (0.780, 0.472, 0.588),
  )
  val table5Heritages: Map[String, (Double, Double, Double)] = Map(
    "TDH" -> (0.873, 0.795, 0.832), "VOTE" -> (0.899, 0.717, 0.798),
    "LCA" -> (0.878, 0.711, 0.786), "DOCS" -> (0.887, 0.722, 0.796),
    "ASUMS" -> (0.741, 0.660, 0.698), "POPACCU" -> (0.859, 0.694, 0.768),
    "LFC" -> (0.808, 0.727, 0.765), "MDC" -> (0.807, 0.792, 0.800),
    "ACCU" -> (0.766, 0.631, 0.692), "CRH" -> (0.883, 0.716, 0.791),
    "LFC-MT" -> (0.898, 0.684, 0.777), "DART" -> (0.357, 0.994, 0.525),
    "LTM" -> (0.871, 0.672, 0.759),
  )

  /** Table 6: (algorithm, attribute) -> (MAE, R/E). */
  val table6: Map[(String, String), (Double, Double)] = Map(
    ("TDH", "change rate") -> (0.0006, 0.1011), ("LCA", "change rate") -> (0.0006, 0.1011),
    ("CRH", "change rate") -> (0.0020, 1.6339), ("CATD", "change rate") -> (0.0104, 2.3529),
    ("VOTE", "change rate") -> (0.0006, 0.1011), ("MEAN", "change rate") -> (0.2837, 30.8747),
    ("TDH", "open price") -> (0.0195, 0.0354), ("LCA", "open price") -> (0.0195, 0.0354),
    ("CRH", "open price") -> (0.0195, 0.0354), ("CATD", "open price") -> (0.0211, 0.0395),
    ("VOTE", "open price") -> (0.0195, 0.0354), ("MEAN", "open price") -> (0.4047, 0.5782),
    ("TDH", "EPS") -> (0.0352, 1.9513), ("LCA", "EPS") -> (0.3831, 16.2212),
    ("CRH", "EPS") -> (0.0610, 1.9882), ("CATD", "EPS") -> (0.0803, 3.2059),
    ("VOTE", "EPS") -> (0.0765, 2.8402), ("MEAN", "EPS") -> (0.1762, 7.3937),
  )
}
