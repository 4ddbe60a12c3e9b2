package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TdhProb

/** Structural invariants of the compiled ObjectView substrate over many
  * generated datasets.
  */
class ViewInvariantsSpec extends AnyFunSuite {

  private def dataset(seed: Long, longTail: Boolean): TdDataset = {
    val base = if (longTail) TruthDataGen.heritagesConfig else TruthDataGen.birthPlacesConfig
    TruthDataGen.generate(base.copy(
      numObjects = 120, targetRecords = 420, hierNodes = 250,
      numSources = if (longTail) 90 else 7, seed = seed))
  }

  /** relType(u, v) is 1 iff u == v, 2 iff u ∈ anc(v), 3 otherwise. */
  private def relationTableAgreesWithAnc(v: ObjectView): Unit =
    for (u <- 0 until v.nCands; t <- 0 until v.nCands) {
      val want = if (u == t) 1 else if (v.anc(t).contains(u)) 2 else 3
      assert(TdhProb.relType(v, u, t) == want, s"obj=${v.obj} u=$u v=$t")
    }

  test("numeric rounding hierarchy: the relation-type table agrees with anc") {
    for (attr <- StockGen.attrs) {
      val views = StockGen.generate(attr, StockGen.Config(numSymbols = 100, seed = 3)).views
      assert(views.exists(_.inOH), attr.name)
      views.foreach(relationTableAgreesWithAnc)
    }
  }

  for (seed <- 0L until 5L; longTail <- Seq(false, true)) {
    val label = s"seed=$seed longTail=$longTail"
    lazy val ds = dataset(seed, longTail)

    test(s"$label: anc and desc are mutually inverse") {
      for (v <- ds.views; j <- 0 until v.nCands; a <- v.anc(j)) {
        assert(v.desc(a).contains(j), s"obj=${v.obj} cand=$j anc=$a")
      }
      for (v <- ds.views; j <- 0 until v.nCands; d <- v.desc(j)) {
        assert(v.anc(d).contains(j), s"obj=${v.obj} cand=$j desc=$d")
      }
    }

    test(s"$label: srcCount sums to the record count") {
      ds.views.foreach(v => assert(v.srcCount.sum == v.nRecords))
    }

    test(s"$label: pop2den + pop3den + own count equals the record count") {
      for (v <- ds.views; j <- 0 until v.nCands)
        assert(v.pop2den(j) + v.pop3den(j) + v.srcCount(j) == v.nRecords,
          s"obj=${v.obj} cand=$j")
    }

    test(s"$label: the relation-type table agrees with anc") {
      ds.views.foreach(relationTableAgreesWithAnc)
    }

    test(s"$label: inOH is consistent with anc emptiness") {
      ds.views.foreach(v => assert(v.inOH == v.anc.exists(_.nonEmpty)))
    }

    test(s"$label: candidate depths respect the ancestor relation") {
      for (v <- ds.views; j <- 0 until v.nCands; a <- v.anc(j))
        assert(v.candDepth(a) < v.candDepth(j))
    }

    test(s"$label: mappedGold is the gold or one of its candidate ancestors") {
      val h = ds.hierarchy
      for (o <- 0 until ds.numObjects) {
        val m = ds.mappedGold(o)
        assert(m == ds.gold(o) || h.isAncestor(m, ds.gold(o)))
      }
    }
  }
}
