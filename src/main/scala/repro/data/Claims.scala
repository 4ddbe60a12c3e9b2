package repro.data

import repro.hier.Hierarchy

import scala.collection.mutable

/** A record (o, s, v): source `source` claims value `value` for object `obj`.
  * Values are hierarchy node ids.
  */
final case class Record(obj: Int, source: Int, value: Int)

/** An answer (o, w, v): crowd worker `worker` claims value `value` for `obj`. */
final case class Answer(obj: Int, worker: Int, value: Int)

/** Compiled per-object candidate structure shared by every inference algorithm.
  *
  * Candidate values V_o are the distinct source-claimed values, sorted by node
  * id for determinism; all per-claim data is stored as candidate *indices*.
  *
  * @param obj       object id
  * @param cands     candidate node ids (sorted ascending)
  * @param candDepth specificity of each candidate (tree depth; significant
  *                  digits for numeric data) — used for argmax tie-breaks
  * @param srcIds    source id of the i-th record on this object
  * @param srcVals   candidate index claimed by the i-th record
  * @param anc       anc(j) = indices of candidates that are proper ancestors of
  *                  cands(j), root excluded — the paper's G_o(cands(j))
  * @param desc      desc(j) = indices of candidates that are proper descendants
  *                  of cands(j) — the paper's D_o(cands(j))
  * @param inOH      whether any ancestor-descendant pair exists in V_o (o ∈ O_H)
  * @param srcCount  srcCount(j) = number of records claiming cands(j)
  * @param rel       relation type of claim u to truth v at rel(u * nCands + v):
  *                  1 = exact (u = v), 2 = u ∈ anc(v), 3 = otherwise
  */
final class ObjectView(
    val obj: Int,
    val cands: Array[Int],
    val candDepth: Array[Int],
    val srcIds: Array[Int],
    val srcVals: Array[Int],
    val anc: Array[Array[Int]],
    val desc: Array[Array[Int]],
    val inOH: Boolean,
    val srcCount: Array[Int],
    val rel: Array[Byte],
) extends Serializable {
  val nCands: Int = cands.length
  val nRecords: Int = srcIds.length

  /** Σ_{u ∈ G_o(v_j)} srcCount(u) — Pop2 denominator for truth = cands(j). */
  val pop2den: Array[Int] = anc.map(_.map(srcCount).sum)

  /** #records claiming neither cands(j) nor a value in G_o(cands(j)) — Pop3
    * denominator for truth = cands(j).
    */
  val pop3den: Array[Int] = Array.tabulate(nCands)(j => nRecords - srcCount(j) - pop2den(j))

  def candIndex(value: Int): Int = java.util.Arrays.binarySearch(cands, value)
}

object ObjectView {

  /** Build a view from the records of one object.
    *
    * @param isAnc isAnc(a, d): value a is a proper, informative ancestor of d
    *              (the hierarchy root must return false as `a`)
    * @param depthOf specificity measure for tie-breaking
    */
  def build(
      obj: Int,
      claims: Seq[(Int, Int)],
      isAnc: (Int, Int) => Boolean,
      depthOf: Int => Int,
  ): ObjectView = {
    require(claims.nonEmpty, s"object $obj has no records")
    val cands = claims.map(_._2).distinct.sorted.toArray
    val n = cands.length
    val idx = cands.zipWithIndex.toMap
    val rel = Array.fill[Byte](n * n)(3)
    val anc = Array.tabulate(n) { j =>
      rel(j * n + j) = 1
      val a = (0 until n).filter(i => i != j && isAnc(cands(i), cands(j))).toArray
      a.foreach(i => rel(i * n + j) = 2)
      a
    }
    val desc = Array.tabulate(n) { j =>
      (0 until n).filter(i => i != j && isAnc(cands(j), cands(i))).toArray
    }
    val srcCount = new Array[Int](n)
    claims.foreach { case (_, v) => srcCount(idx(v)) += 1 }
    new ObjectView(
      obj,
      cands,
      cands.map(depthOf),
      claims.map(_._1).toArray,
      claims.map(c => idx(c._2)).toArray,
      anc,
      desc,
      anc.exists(_.nonEmpty),
      srcCount,
      rel,
    )
  }
}

/** A truth-discovery dataset: hierarchy + records + gold truths.
  *
  * @param gold gold(o) = gold node id for object o (may be absent from V_o —
  *             metrics map it to the most specific candidate ancestor, §5)
  */
final case class TdDataset(
    hierarchy: Hierarchy,
    numObjects: Int,
    numSources: Int,
    records: Vector[Record],
    gold: Array[Int],
) {
  /** Compiled per-object views, index = object id. */
  lazy val views: Array[ObjectView] = TdDataset.compile(hierarchy, numObjects, records)

  /** Gold truth mapped into the candidate set (§5 Quality Measures): the gold
    * value itself if claimed, else the deepest candidate that is an ancestor of
    * the gold value, else the (unclaimable) gold value.
    */
  lazy val mappedGold: Array[Int] = Array.tabulate(numObjects) { o =>
    val v = views(o)
    val g = gold(o)
    if (v.cands.contains(g)) g
    else {
      val ancCands = v.cands.filter(c => c != hierarchy.root && hierarchy.isAncestor(c, g))
      if (ancCands.isEmpty) g else ancCands.maxBy(hierarchy.depth)
    }
  }
}

object TdDataset {
  def compile(h: Hierarchy, numObjects: Int, records: Seq[Record]): Array[ObjectView] = {
    val byObj = Array.fill(numObjects)(mutable.ArrayBuffer.empty[(Int, Int)])
    records.foreach(r => byObj(r.obj) += ((r.source, r.value)))
    val isAnc = (a: Int, d: Int) => a != h.root && h.isAncestor(a, d)
    Array.tabulate(numObjects)(o => ObjectView.build(o, byObj(o).toSeq, isAnc, h.depth))
  }
}

/** Mutable crowdsourcing state: the answers accumulated over rounds.
  * Stored per object as (workerId, candIdx) pairs.
  */
final class AnswerLog(numObjects: Int) {
  private val byObj = Array.fill(numObjects)(mutable.ArrayBuffer.empty[(Int, Int)])

  def add(obj: Int, worker: Int, candIdx: Int): Unit = byObj(obj) += ((worker, candIdx))
  def answersFor(obj: Int): IndexedSeq[(Int, Int)] = byObj(obj).toIndexedSeq
  def hasAnswered(worker: Int, obj: Int): Boolean = byObj(obj).exists(_._1 == worker)
  def count(obj: Int): Int = byObj(obj).size
  def totalAnswers: Int = byObj.map(_.size).sum

  def toAnswers(views: Array[ObjectView]): Vector[Answer] =
    byObj.zipWithIndex.flatMap { case (buf, o) =>
      buf.map { case (w, j) => Answer(o, w, views(o).cands(j)) }
    }.toVector
}
