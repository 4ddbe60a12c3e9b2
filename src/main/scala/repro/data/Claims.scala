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
  require(gold.length == numObjects, s"gold has ${gold.length} entries for $numObjects objects")
  locally { // each record names a known object and source and a non-root node; each object has a record
    val objOff = new Array[Int](numObjects + 1)
    for (r <- records) {
      require(r.obj >= 0 && r.obj < numObjects, s"$r: object ${r.obj} is not in [0, $numObjects)")
      require(r.source >= 0 && r.source < numSources, s"$r: source ${r.source} is not in [0, $numSources)")
      require(r.value > hierarchy.root && r.value < hierarchy.size, s"$r: value ${r.value} is not a non-root hierarchy node")
      objOff(r.obj + 1) += 1
    }
    for (o <- 0 until numObjects) {
      require(objOff(o + 1) > 0, s"object $o has no records")
      objOff(o + 1) += objOff(o)
    }
    // no source claims an object twice: the sources grouped by object, each
    // stamped with the last object it was seen on
    val srcByObj = new Array[Int](records.length)
    val next = objOff.clone()
    for (r <- records) { srcByObj(next(r.obj)) = r.source; next(r.obj) += 1 }
    val seenOn = Array.fill(numSources)(-1)
    var o = 0
    while (o < numObjects) {
      var k = objOff(o)
      while (k < objOff(o + 1)) {
        val s = srcByObj(k)
        if (seenOn(s) == o) {
          val r = records.filter(r => r.obj == o && r.source == s)(1)
          throw new IllegalArgumentException(s"$r: source $s already has a record on object $o")
        }
        seenOn(s) = o
        k += 1
      }
      o += 1
    }
  }

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
  /** f(worker, candIdx) for each answer on obj, in the order they were added. */
  def foreachAnswer(obj: Int)(f: (Int, Int) => Unit): Unit = byObj(obj).foreach(a => f(a._1, a._2))
  def hasAnswered(worker: Int, obj: Int): Boolean = byObj(obj).exists(_._1 == worker)
  def count(obj: Int): Int = byObj(obj).size
  def totalAnswers: Int = byObj.map(_.size).sum

  def toAnswers(views: Array[ObjectView]): Vector[Answer] =
    byObj.zipWithIndex.flatMap { case (buf, o) =>
      buf.map { case (w, j) => Answer(o, w, views(o).cands(j)) }
    }.toVector
}

/** The claims of one inference run, compiled once and read by every inference
  * algorithm. Sources and workers get dense ids in order of first appearance,
  * records before answers. Object o's records are recSrc[recOff(o),
  * recOff(o + 1)) (their candidate indices are views(o).srcVals), its answers
  * ansWkr/ansVal[ansOff(o), ansOff(o + 1)); srcIds/wkrIds map a dense id back
  * to the source/worker id.
  *
  * Algorithms that treat sources and workers alike index one actor space:
  * dense source s is actor s, dense worker w is actor nSrc + w.
  */
final class ClaimTable private (
    val views: Array[ObjectView],
    val srcIds: Array[Int],
    val wkrIds: Array[Int],
    val recOff: Array[Int],
    val recSrc: Array[Int],
    val ansOff: Array[Int],
    val ansWkr: Array[Int],
    val ansVal: Array[Int],
) extends Serializable {
  val nSrc: Int = srcIds.length
  val nActors: Int = nSrc + wkrIds.length

  /** Records per dense source id (the Eq. (10) denominator count). */
  def claimsPerSource: Array[Int] = countIds(recSrc, nSrc)
  /** Answers per dense worker id (the Eq. (11) denominator count). */
  def claimsPerWorker: Array[Int] = countIds(ansWkr, wkrIds.length)
  /** Claims per actor. */
  def claimsPerActor: Array[Int] = claimsPerSource ++ claimsPerWorker
  private def countIds(ids: Array[Int], n: Int): Array[Int] = {
    val c = new Array[Int](n)
    ids.foreach(i => c(i) += 1)
    c
  }

  /** Whether `actor` is a worker. */
  def isWorker(actor: Int): Boolean = actor >= nSrc
  /** The source or worker id of `actor`. */
  def actorId(actor: Int): Int = if (actor < nSrc) srcIds(actor) else wkrIds(actor - nSrc)

  /** Claims on object o: its records, then its answers. */
  def nClaims(o: Int): Int = recOff(o + 1) - recOff(o) + ansOff(o + 1) - ansOff(o)
  /** Actor of o's i-th claim. */
  def actor(o: Int, i: Int): Int = {
    val nRec = recOff(o + 1) - recOff(o)
    if (i < nRec) recSrc(recOff(o) + i) else nSrc + ansWkr(ansOff(o) + i - nRec)
  }
  /** Candidate index of o's i-th claim. */
  def value(o: Int, i: Int): Int = {
    val nRec = recOff(o + 1) - recOff(o)
    if (i < nRec) views(o).srcVals(i) else ansVal(ansOff(o) + i - nRec)
  }

  /** f(actor, candIdx) for each claim on object o, records before answers. */
  def foreachClaim(o: Int)(f: (Int, Int) => Unit): Unit = {
    val vals = views(o).srcVals
    var r = recOff(o)
    while (r < recOff(o + 1)) { f(recSrc(r), vals(r - recOff(o))); r += 1 }
    var a = ansOff(o)
    while (a < ansOff(o + 1)) { f(nSrc + ansWkr(a), ansVal(a)); a += 1 }
  }

  /** Votes per candidate of object o: its records and answers on it. */
  def votes(o: Int): Array[Int] = {
    val c = views(o).srcCount.clone()
    var a = ansOff(o)
    while (a < ansOff(o + 1)) { c(ansVal(a)) += 1; a += 1 }
    c
  }

  /** A parameter of each worker actor, by worker id. */
  def byWorker(param: Int => Double): Map[Int, Double] = wkrIds.indices.map(w => wkrIds(w) -> param(nSrc + w)).toMap
}

object ClaimTable {

  /** Compile `views` and `answers`. This is a method, not constructor code:
    * in a constructor the JIT left the loop slow.
    */
  def apply(views: Array[ObjectView], answers: AnswerLog): ClaimTable = {
    val nObj = views.length
    val srcDense = mutable.HashMap.empty[Int, Int]
    val wkrDense = mutable.HashMap.empty[Int, Int]
    val srcIds = mutable.ArrayBuffer.empty[Int]
    val wkrIds = mutable.ArrayBuffer.empty[Int]
    val recOff = new Array[Int](nObj + 1)
    val ansOff = new Array[Int](nObj + 1)
    val recSrc = new Array[Int](views.iterator.map(_.nRecords).sum)
    val ansWkr = mutable.ArrayBuffer.empty[Int]
    val ansVal = mutable.ArrayBuffer.empty[Int]
    var o = 0
    while (o < nObj) {
      val view = views(o)
      var r = 0
      while (r < view.nRecords) {
        val s = view.srcIds(r)
        recSrc(recOff(o) + r) = srcDense.getOrElseUpdate(s, { srcIds += s; srcIds.size - 1 })
        r += 1
      }
      recOff(o + 1) = recOff(o) + view.nRecords
      answers.foreachAnswer(o) { (w, u) =>
        ansWkr += wkrDense.getOrElseUpdate(w, { wkrIds += w; wkrIds.size - 1 })
        ansVal += u
      }
      ansOff(o + 1) = ansWkr.size
      o += 1
    }
    new ClaimTable(views, srcIds.toArray, wkrIds.toArray, recOff, recSrc, ansOff, ansWkr.toArray, ansVal.toArray)
  }
}
