package repro.hier

import scala.collection.mutable
import scala.util.Random

/** A rooted hierarchy tree over value nodes (the paper's `H`).
  *
  * Node 0 is always the root (e.g., "Earth"); the paper assumes no claim ever
  * uses the root. Nodes are dense ints so the per-object candidate machinery
  * in [[repro.data.ObjectView]] can use primitive arrays.
  *
  * @param parent parent(i) = parent node of i; parent(0) == -1 for the root
  * @param labels human-readable node labels (generator-produced)
  */
final class Hierarchy(val parent: Array[Int], val labels: Array[String]) extends Serializable {
  require(parent.length == labels.length, "parent/labels size mismatch")
  require(parent.nonEmpty && parent(0) == -1, "node 0 must be the root")

  val size: Int = parent.length

  /** depth(root) == 0. */
  val depth: Array[Int] = {
    val d = new Array[Int](size)
    var i = 1
    while (i < size) {
      // parents are generated before children, so parent depth is final
      require(parent(i) >= 0 && parent(i) < i, s"node $i must have an earlier parent")
      d(i) = d(parent(i)) + 1
      i += 1
    }
    d
  }

  /** Height of the tree = max depth. */
  val height: Int = if (size == 1) 0 else depth.max

  def root: Int = 0

  /** Proper ancestors of v from parent up to (and including) the root. */
  def ancestors(v: Int): List[Int] = {
    var cur = parent(v)
    val b = List.newBuilder[Int]
    while (cur != -1) { b += cur; cur = parent(cur) }
    b.result()
  }

  /** Proper ancestors of v excluding the root — the paper's ancestor notion
    * (the root carries no information and is excluded from G_o).
    */
  def ancestorsNoRoot(v: Int): List[Int] = ancestors(v).filter(_ != root)

  /** True iff a is a proper ancestor of d. */
  def isAncestor(a: Int, d: Int): Boolean = {
    if (a == d) return false
    if (depth(a) >= depth(d)) return false
    var cur = d
    while (depth(cur) > depth(a)) cur = parent(cur)
    cur == a
  }

  /** Lowest common ancestor of u and v. */
  def lca(u: Int, v: Int): Int = {
    var a = u; var b = v
    while (depth(a) > depth(b)) a = parent(a)
    while (depth(b) > depth(a)) b = parent(b)
    while (a != b) { a = parent(a); b = parent(b) }
    a
  }

  /** Number of edges between u and v in the tree (the paper's d(v, t)). */
  def distance(u: Int, v: Int): Int = {
    val l = lca(u, v)
    (depth(u) - depth(l)) + (depth(v) - depth(l))
  }

  /** Children adjacency, built lazily (generators and tests need it). */
  lazy val children: Array[Array[Int]] = {
    val buf = Array.fill(size)(mutable.ArrayBuffer.empty[Int])
    var i = 1
    while (i < size) { buf(parent(i)) += i; i += 1 }
    buf.map(_.toArray)
  }

  /** All nodes at the given depth. */
  def nodesAtDepth(d: Int): Array[Int] = (0 until size).filter(depth(_) == d).toArray

  /** Leaves (no children). */
  lazy val leaves: Array[Int] = children.zipWithIndex.collect { case (c, i) if c.isEmpty => i }
}

object Hierarchy {

  /** Build from explicit (child -> parent) edges; ids must be dense with root 0. */
  def fromParents(parent: Array[Int], labels: Option[Array[String]] = None): Hierarchy =
    new Hierarchy(parent, labels.getOrElse(parent.indices.map(i => s"n$i").toArray))

  /** Generate a random geographic-style tree with roughly `targetNodes` nodes
    * and exactly `height` levels below the root.
    *
    * Branching narrows with depth (continents → countries → regions → cities),
    * which matches how the paper's IMDb/UNESCO hierarchies look: a few wide
    * top levels and many narrow deep ones. Deterministic in `seed`.
    */
  def randomTree(targetNodes: Int, height: Int, seed: Long): Hierarchy = {
    require(height >= 2, "need at least 2 levels below the root")
    val rnd = new Random(seed)
    val parent = mutable.ArrayBuffer[Int](-1)
    var frontier = List(0)
    // Distribute node budget over levels: deeper levels get geometrically more
    // nodes (fan-out), then we clip to the budget.
    val weights = (1 to height).map(l => math.pow(2.2, l.toDouble)).toArray
    val wSum = weights.sum
    var remaining = targetNodes - 1
    for (level <- 1 to height) {
      val want = math.max(frontier.size, // every frontier node needs >=1 child to reach full height
        if (level == height) remaining
        else math.min(remaining - (height - level), math.round((targetNodes - 1) * weights(level - 1) / wSum).toInt))
      val count = math.max(0, math.min(remaining, want))
      val next = mutable.ArrayBuffer.empty[Int]
      if (count > 0 && frontier.nonEmpty) {
        val fr = frontier.toArray
        var i = 0
        while (i < count) {
          // first |frontier| children go one to each parent so the tree
          // actually reaches the requested height everywhere possible
          val p = if (i < fr.length) fr(i) else fr(rnd.nextInt(fr.length))
          val id = parent.length
          parent += p
          next += id
          i += 1
        }
      }
      remaining -= count
      frontier = next.toList
    }
    fromParents(parent.toArray)
  }
}
