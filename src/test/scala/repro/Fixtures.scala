package repro

import repro.assign.EaiAssigner
import repro.baselines.TdhInference
import repro.crowd.SimWorkers
import repro.data.{AnswerLog, Record, TdDataset}
import repro.hier.Hierarchy

/** Small hand-crafted fixtures shared across suites. */
object Fixtures {

  /** Earth(0) -> USA(1) -> { NY(2) -> LibertyIsland(3), CA(4) -> LA(5) },
    * UK(6) -> { London(7), Manchester(8) } — the paper's Table 1 world.
    */
  val geo: Hierarchy = Hierarchy.fromParents(
    Array(-1, 0, 1, 2, 1, 4, 0, 6, 6),
    Some(Array("Earth", "USA", "NY", "LibertyIsland", "CA", "LA", "UK", "London", "Manchester")),
  )
  val USA = 1; val NY = 2; val LibertyIsland = 3; val CA = 4; val LA = 5
  val UK = 6; val London = 7; val Manchester = 8

  /** Dataset mirroring Table 1 plus enough extra objects for the sources'
    * reliabilities to be estimable. Sources: 0=UNESCO-ish (claims
    * generalized), 1=Wikipedia-ish (exact), 2=Arrangy-ish (wrong).
    */
  def table1World(extraObjects: Int = 12): TdDataset = {
    val recs = Vector.newBuilder[Record]
    // object 0: Statue of Liberty
    recs += Record(0, 0, NY)
    recs += Record(0, 1, LibertyIsland)
    recs += Record(0, 2, LA)
    // object 1: Big Ben
    recs += Record(1, 3, Manchester)
    recs += Record(1, 1, London)
    recs += Record(1, 0, UK)
    val gold = Array.fill(2 + extraObjects)(0)
    gold(0) = LibertyIsland
    gold(1) = London
    // extra objects: source 1 exact, source 0 generalized, source 2 wrong
    val deepTruths = Array(LibertyIsland, LA, London, Manchester)
    for (i <- 0 until extraObjects) {
      val o = 2 + i
      val t = deepTruths(i % deepTruths.length)
      gold(o) = t
      recs += Record(o, 1, t)
      recs += Record(o, 0, geo.parent(t))
      recs += Record(o, 2, deepTruths((i + 1) % deepTruths.length))
    }
    TdDataset(geo, 2 + extraObjects, 4, recs.result(), gold)
  }

  /** A flat dataset (no hierarchy relations among candidates): 3 sources
    * voting over leaves only.
    */
  def flatWorld(): TdDataset = {
    val recs = Vector(
      Record(0, 0, LibertyIsland), Record(0, 1, LibertyIsland), Record(0, 2, LA),
      Record(1, 0, London), Record(1, 1, Manchester), Record(1, 2, London),
      Record(2, 0, LA), Record(2, 1, LA), Record(2, 2, LA),
    )
    TdDataset(geo, 3, 3, recs, Array(LibertyIsland, London, LA))
  }

  /** The answer log after 3 TDH+EAI crowd rounds (k = 5, 10 workers). */
  def crowdLog(ds: TdDataset): AnswerLog = {
    val log = new AnswerLog(ds.numObjects)
    val workers = SimWorkers.uniform(10, 0.75, 123)
    for (_ <- 1 to 3) {
      val state = new TdhInference().infer(ds.views, log)
      new EaiAssigner().assign(state, log, workers.ids, 5).foreach { case (w, o) =>
        log.add(o, w, workers.answer(ds, w, o))
      }
    }
    log
  }
}
