package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.Fixtures._

class ClaimsSpec extends AnyFunSuite {

  private val ds = Fixtures.table1World()
  private val sol = ds.views(0) // Statue of Liberty: claims NY, LibertyIsland, LA

  test("candidates are the distinct claimed values, sorted") {
    assert(sol.cands.toSeq == Seq(NY, LibertyIsland, LA))
  }

  test("G_o: NY is an ancestor candidate of LibertyIsland; root never appears") {
    val liIdx = sol.candIndex(LibertyIsland)
    assert(sol.anc(liIdx).map(sol.cands).toSeq == Seq(NY))
    assert(sol.anc(sol.candIndex(NY)).isEmpty)
    assert(sol.anc(sol.candIndex(LA)).isEmpty)
  }

  test("D_o: LibertyIsland is a descendant candidate of NY") {
    val nyIdx = sol.candIndex(NY)
    assert(sol.desc(nyIdx).map(sol.cands).toSeq == Seq(LibertyIsland))
    assert(sol.desc(sol.candIndex(LibertyIsland)).isEmpty)
  }

  test("o ∈ O_H iff an ancestor-descendant pair exists among candidates") {
    assert(sol.inOH)
    val flat = Fixtures.flatWorld()
    assert(flat.views.forall(v => !v.inOH))
  }

  test("srcCount counts claims per candidate") {
    assert(sol.srcCount.toSeq == Seq(1, 1, 1))
    val la = Fixtures.flatWorld().views(2)
    assert(la.cands.toSeq == Seq(LA) && la.srcCount.toSeq == Seq(3))
  }

  test("pop2den sums source claims over ancestor candidates") {
    val liIdx = sol.candIndex(LibertyIsland)
    assert(sol.pop2den(liIdx) == 1) // one claim of NY
    assert(sol.pop2den(sol.candIndex(NY)) == 0)
  }

  test("pop3den counts claims that are neither the value nor its generalizations") {
    val liIdx = sol.candIndex(LibertyIsland)
    assert(sol.pop3den(liIdx) == 1) // LA
    assert(sol.pop3den(sol.candIndex(NY)) == 2) // LibertyIsland + LA
    assert(sol.pop3den(sol.candIndex(LA)) == 2) // NY + LibertyIsland
  }

  test("candIndex returns a negative value for non-candidates") {
    assert(sol.candIndex(London) < 0)
  }

  test("candDepth carries the hierarchy depth for tie-breaking") {
    assert(sol.candDepth(sol.candIndex(LibertyIsland)) == 3)
    assert(sol.candDepth(sol.candIndex(NY)) == 2)
  }

  test("views require at least one record per object") {
    intercept[IllegalArgumentException] {
      ObjectView.build(0, Seq.empty, (_, _) => false, _ => 0)
    }
  }

  /** The message of the IllegalArgumentException a dataset of `recs` over
    * `numObjects` objects and 3 sources throws at construction.
    */
  private def rejected(numObjects: Int, recs: Vector[Record], gold: Array[Int]): String =
    intercept[IllegalArgumentException](TdDataset(Fixtures.geo, numObjects, 3, recs, gold)).getMessage

  test("a dataset rejects a record whose value is not a hierarchy node") {
    val msg = rejected(1, Vector(Record(0, 0, London), Record(0, 1, 9)), Array(London))
    assert(msg.contains("Record(0,1,9)"), msg)
  }

  test("a dataset rejects a record that claims the hierarchy root") {
    val msg = rejected(1, Vector(Record(0, 0, London), Record(0, 2, Fixtures.geo.root)), Array(London))
    assert(msg.contains("Record(0,2,0)") && msg.contains("root"), msg)
  }

  test("a dataset rejects object and source ids out of range") {
    val obj = rejected(1, Vector(Record(0, 0, London), Record(1, 0, London)), Array(London))
    assert(obj.contains("Record(1,0,7)") && obj.contains("object 1"), obj)
    val src = rejected(1, Vector(Record(0, 3, London)), Array(London))
    assert(src.contains("Record(0,3,7)") && src.contains("source 3"), src)
  }

  test("a dataset rejects an object with no records") {
    val msg = rejected(3, Vector(Record(0, 0, London), Record(2, 0, LA)), Array(London, London, LA))
    assert(msg.contains("object 1 has no records"), msg)
  }

  test("a dataset rejects a second record of one source on one object, wherever it sits") {
    val msg = rejected(2, Vector(Record(0, 0, London), Record(1, 0, LA), Record(1, 1, LA), Record(0, 0, Manchester)),
      Array(London, LA))
    assert(msg.contains("Record(0,0,8)") && msg.contains("source 0") && msg.contains("object 0"), msg)
    // the same value twice is a duplicate too; one source on many objects is not
    val same = rejected(2, Vector(Record(1, 2, LA), Record(0, 2, LA), Record(1, 2, LA)), Array(LA, LA))
    assert(same.contains("Record(1,2,5)"), same)
    assert(TdDataset(Fixtures.geo, 2, 3, Vector(Record(1, 2, LA), Record(0, 2, LA), Record(0, 1, LA)), Array(LA, LA))
      .views.map(_.nRecords).toSeq == Seq(2, 1))
  }

  test("a dataset rejects a gold array whose length is not the object count") {
    val msg = rejected(2, Vector(Record(0, 0, London), Record(1, 0, LA)), Array(London))
    assert(msg.contains("gold has 1 entries for 2 objects"), msg)
  }

  test("mappedGold keeps the gold value when it is a candidate") {
    assert(ds.mappedGold(0) == LibertyIsland)
    assert(ds.mappedGold(1) == London)
  }

  test("mappedGold falls back to the deepest candidate ancestor of the gold") {
    // object claims only USA and UK; gold is LibertyIsland -> mapped to USA
    val d2 = TdDataset(Fixtures.geo, 1, 2,
      Vector(Record(0, 0, USA), Record(0, 1, UK)), Array(LibertyIsland))
    assert(d2.mappedGold(0) == USA)
  }

  test("mappedGold keeps an unmatchable gold as-is") {
    val d3 = TdDataset(Fixtures.geo, 1, 2,
      Vector(Record(0, 0, London), Record(0, 1, Manchester)), Array(LA))
    assert(d3.mappedGold(0) == LA)
  }

  test("AnswerLog tracks answers per object and worker") {
    val log = new AnswerLog(3)
    assert(!log.hasAnswered(7, 0) && log.count(0) == 0)
    log.add(0, 7, 1)
    log.add(0, 8, 0)
    log.add(2, 7, 0)
    assert(log.hasAnswered(7, 0) && !log.hasAnswered(7, 1))
    assert(log.count(0) == 2 && log.count(2) == 1 && log.totalAnswers == 3)
    assert(log.answersFor(0) == IndexedSeq((7, 1), (8, 0)))
  }

  test("AnswerLog.toAnswers maps candidate indices back to node values") {
    val log = new AnswerLog(ds.numObjects)
    log.add(0, 5, sol.candIndex(LibertyIsland))
    assert(log.toAnswers(ds.views) == Vector(Answer(0, 5, LibertyIsland)))
  }
}
