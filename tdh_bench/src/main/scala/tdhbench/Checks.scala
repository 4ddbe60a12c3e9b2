package tdhbench

import repro.data.ObjectView

/** An output that breaks one of the invariants below. */
final class CheckFailed(msg: String) extends RuntimeException(msg)

/** Output invariants. None of them is a golden number, so a deliberate change
  * of results does not read as a broken output; each has a self-test showing
  * it rejects a wrong output.
  */
object Checks {

  private def fail(msg: String): Nothing = throw new CheckFailed(msg)

  /** Every μ_o has entries in [0,1] that sum to 1 within 1e-9. */
  def muRows(mu: Array[Array[Double]]): Unit = {
    var o = 0
    while (o < mu.length) {
      val row = mu(o)
      if (row.isEmpty) fail(s"mu($o) is empty")
      var sum = 0.0
      row.foreach { x =>
        if (!(x >= 0.0 && x <= 1.0)) fail(s"mu($o) has entry $x outside [0,1]")
        sum += x
      }
      if (math.abs(sum - 1.0) > 1e-9) fail(s"mu($o) sums to $sum")
      o += 1
    }
  }

  /** Every truth_o (a hierarchy node id) is one of o's candidates V_o. */
  def truthInCands(views: Array[ObjectView], truth: Array[Int]): Unit = {
    if (truth.length != views.length) fail(s"${truth.length} truths for ${views.length} objects")
    var o = 0
    while (o < views.length) {
      if (java.util.Arrays.binarySearch(views(o).cands, truth(o)) < 0)
        fail(s"truth ${truth(o)} of object $o is not in V_o")
      o += 1
    }
  }

  /** A repeated op on identical inputs returns the reference output exactly. */
  def same[A](what: String, ref: Seq[A], got: Seq[A]): Unit = {
    if (ref.length != got.length) fail(s"$what: ${got.length} entries, reference has ${ref.length}")
    val i = ref.indices.indexWhere(i => ref(i) != got(i))
    if (i >= 0) fail(s"$what differs from the reference at $i: ${got(i)} vs ${ref(i)}")
  }

  /** EAI with pruning picks the same (worker, object) pairs as without it. */
  def samePairs(pruned: Seq[(Int, Int)], unpruned: Seq[(Int, Int)]): Unit =
    if (pruned.toSet != unpruned.toSet || pruned.length != unpruned.length)
      fail(s"pruned EAI chose ${(pruned.toSet -- unpruned).take(3)} not chosen unpruned " +
        s"(${pruned.length} vs ${unpruned.length} pairs)")

  /** One round's assignment: at most k objects per worker, no object to two
    * workers, and no object to a worker who already answered it.
    */
  def roundAssignment(pairs: Seq[(Int, Int)], k: Int, answered: (Int, Int) => Boolean): Unit = {
    pairs.groupBy(_._1).foreach { case (w, ps) =>
      if (ps.length > k) fail(s"worker $w got ${ps.length} > $k objects")
    }
    pairs.groupBy(_._2).foreach { case (o, ps) =>
      if (ps.length > 1) fail(s"object $o went to ${ps.length} workers in one round")
    }
    pairs.foreach { case (w, o) => if (answered(w, o)) fail(s"object $o went back to worker $w") }
  }

  /** Spark μ, keyed by (object, candidate node id), equals the local μ within
    * `tol` and has exactly the local candidates.
    */
  def closeMu(views: Array[ObjectView], local: Array[Array[Double]], spark: Map[(Int, Int), Double], tol: Double): Unit = {
    val n = views.map(_.nCands).sum
    if (spark.size != n) fail(s"spark mu has ${spark.size} entries, local has $n")
    for (o <- views.indices; j <- 0 until views(o).nCands) {
      val key = (o, views(o).cands(j))
      val s = spark.getOrElse(key, fail(s"spark mu lacks $key"))
      if (!(math.abs(s - local(o)(j)) <= tol)) fail(s"spark mu$key = $s, local ${local(o)(j)}")
    }
  }

  /** Spark μ regrouped per object in candidate order, for [[muRows]]. */
  def muByObject(views: Array[ObjectView], spark: Map[(Int, Int), Double]): Array[Array[Double]] =
    Array.tabulate(views.length)(o => views(o).cands.map(v => spark.getOrElse((o, v), Double.NaN)))

  /** Shows that every check accepts a correct output and rejects a
    * deliberately wrong one. Throws [[CheckFailed]] naming the first check
    * that does not.
    */
  def selfTest(views: Array[ObjectView], mu: Array[Array[Double]], truth: Array[Int]): Unit = {
    def rejects(name: String)(body: => Unit): Unit = {
      val rejected = try { body; false } catch { case _: CheckFailed => true }
      if (!rejected) fail(s"self-test: check '$name' accepted a wrong output")
    }
    def copyMu = mu.map(_.clone)

    muRows(mu)
    rejects("mu sums to 1") { val m = copyMu; m(0)(0) += 1e-6; muRows(m) }
    rejects("mu in [0,1]") {
      val m = copyMu; val o = m.indexWhere(_.length >= 2)
      m(o)(0) = -0.25; m(o)(1) += 0.25; muRows(m)
    }

    truthInCands(views, truth)
    val permuted = truth.indices.map(o => truth((o + 1) % truth.length)).toArray
    rejects("truth in V_o") { truthInCands(views, permuted) }

    same("truth", truth.toSeq, truth.clone.toSeq)
    rejects("repeat equals reference") { same("truth", truth.toSeq, permuted.toSeq) }

    val pairs = Seq((0, 10), (0, 11), (1, 12))
    samePairs(pairs, pairs.reverse)
    rejects("pruned == unpruned") { samePairs(pairs, Seq((0, 10), (0, 11), (1, 13))) }

    val none = (_: Int, _: Int) => false
    roundAssignment(pairs, 2, none)
    rejects("k per worker") { roundAssignment(pairs :+ ((0, 14)), 2, none) }
    rejects("one worker per object") { roundAssignment(pairs :+ ((1, 10)), 2, none) }
    rejects("not answered before") { roundAssignment(pairs, 2, (w, o) => w == 1 && o == 12) }

    val asMap = (for (o <- views.indices; j <- 0 until views(o).nCands)
      yield (o, views(o).cands(j)) -> mu(o)(j)).toMap
    closeMu(views, mu, asMap, 1e-9)
    rejects("spark mu equals local mu") {
      val key = asMap.keys.min
      closeMu(views, mu, asMap.updated(key, asMap(key) + 1e-6), 1e-9)
    }
  }
}
