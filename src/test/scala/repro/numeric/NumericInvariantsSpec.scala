package repro.numeric

import java.math.{BigDecimal => JBD}

import org.scalatest.funsuite.AnyFunSuite
import repro.core.NumericHierarchy
import repro.data.StockGen
import repro.eval.Metrics

import scala.util.Random

/** Property-style invariants of the implicit rounding hierarchy and the
  * numeric pipeline over many random values and seeds.
  */
class NumericInvariantsSpec extends AnyFunSuite {

  private val rnd = new Random(17)

  test("rounding to k significant digits yields a value of precision <= k (100 random values)") {
    for (_ <- 1 to 100) {
      val x = (rnd.nextDouble() - 0.3) * math.pow(10, rnd.nextInt(6) - 2)
      val bd = new JBD(x.toString)
      for (k <- 1 to 5) {
        assert(NumericHierarchy.roundToSig(bd, k).precision() <= k, s"x=$x k=$k")
      }
    }
  }

  test("rounding chains form ancestor chains (100 random values)") {
    for (_ <- 1 to 100) {
      val x = 1.0 + rnd.nextDouble() * 998.0
      val full = new JBD(x.toString).round(new java.math.MathContext(6))
      val mid = NumericHierarchy.roundToSig(full, 3)
      val top = NumericHierarchy.roundToSig(full, 1)
      if (mid.precision() < full.precision())
        assert(NumericHierarchy.isAncestor(mid, full), s"x=$x mid=$mid full=$full")
      if (top.precision() < mid.precision() && NumericHierarchy.roundToSig(mid, top.precision()).compareTo(top) == 0)
        assert(NumericHierarchy.isAncestor(top, mid), s"x=$x top=$top mid=$mid")
    }
  }

  test("isAncestor is antisymmetric and irreflexive over random pairs") {
    for (_ <- 1 to 200) {
      val a = new JBD((rnd.nextDouble() * 100).toString).round(new java.math.MathContext(1 + rnd.nextInt(5)))
      val b = new JBD((rnd.nextDouble() * 100).toString).round(new java.math.MathContext(1 + rnd.nextInt(5)))
      assert(!NumericHierarchy.isAncestor(a, a))
      if (NumericHierarchy.isAncestor(a, b)) assert(!NumericHierarchy.isAncestor(b, a))
    }
  }

  // Decimal strings for the notation properties below: plain values (1–3
  // integer digits or a leading "0.", up to 3 more digits), and pairs (a, d)
  // where a is d rounded to fewer significant digits, so a generalizes d.
  private val gen = new Random(29)
  private def isAnc(a: String, d: String): Boolean = NumericHierarchy.isAncestorStr(a, d)
  private def plainValue(): String = {
    val frac = (0 until gen.nextInt(4)).map(_ => gen.nextInt(10)).mkString
    if (gen.nextInt(4) == 0) s"0.${"0" * gen.nextInt(3)}${1 + gen.nextInt(9)}$frac"
    else if (frac.isEmpty) (1 + gen.nextInt(999)).toString
    else s"${1 + gen.nextInt(999)}.$frac"
  }
  private def generalizedPair(): (String, String) = {
    var d = plainValue()
    while (NumericHierarchy.precision(d) < 2) d = plainValue()
    (NumericHierarchy.roundToSig(new JBD(d), 1 + gen.nextInt(NumericHierarchy.precision(d) - 1)).toString, d)
  }
  private def negate(s: String): String = if (s.startsWith("-")) s.tail else "-" + s
  /** s in exponent notation with the same significant digits ("605" -> "6.05E2"). */
  private def exponentForm(s: String): String = {
    val x = new JBD(s)
    val digits = x.unscaledValue.abs.toString
    val mantissa = if (digits.length == 1) digits else s"${digits.head}.${digits.tail}"
    s"${if (x.signum < 0) "-" else ""}${mantissa}E${x.precision - x.scale - 1}"
  }

  test("zero: \"0\" and \"0.00\" have one significant digit, neither generalizes the other, and zero generalizes no other value") {
    assert(NumericHierarchy.precision("0") == 1 && NumericHierarchy.precision("0.00") == 1)
    assert(!isAnc("0", "0.00") && !isAnc("0.00", "0"))
    for (_ <- 1 to 200; x = plainValue(); z <- Seq("0", "0.00", "-0")) {
      assert(!isAnc(z, x) && !isAnc(z, negate(x)), s"$z generalizes $x")
      assert(!isAnc(x, z) && !isAnc(negate(x), z), s"$x generalizes $z")
    }
  }

  test("negative values: rounding is sign-symmetric, and a value never generalizes one of the other sign") {
    assert(isAnc("-605.2", "-605.196") && isAnc("-605", "-605.2") && isAnc("-6.1E2", "-605.196"))
    assert(!isAnc("605.2", "-605.196") && !isAnc("-605.2", "605.196") && !isAnc("-605.196", "-605.2"))
    assert(isAnc("-0.3", "-0.25") && !isAnc("-0.2", "-0.25")) // HALF_UP rounds a tie away from zero
    for (_ <- 1 to 200) {
      val (a, d) = generalizedPair()
      assert(isAnc(negate(a), negate(d)) && !isAnc(negate(a), d) && !isAnc(a, negate(d)), s"a=$a d=$d")
      val (x, y) = (plainValue(), plainValue())
      assert(isAnc(x, y) == isAnc(negate(x), negate(y)), s"x=$x y=$y")
    }
  }

  test("trailing zeros are significant: \"605\" generalizes \"605.0\", never the reverse") {
    assert(isAnc("605", "605.0") && isAnc("605.0", "605.00") && isAnc("605", "605.00"))
    assert(!isAnc("605.0", "605") && !isAnc("605.00", "605.0") && !isAnc("605.0", "605.2"))
    for (_ <- 1 to 200) {
      val x = plainValue()
      val x0 = if (x.contains('.')) x + "0" else x + ".0"
      assert(NumericHierarchy.precision(x0) == NumericHierarchy.precision(x) + 1, s"x=$x")
      assert(isAnc(x, x0) && !isAnc(x0, x), s"x=$x x0=$x0")
      assert(isAnc(negate(x), negate(x0)), s"x=$x x0=$x0")
    }
  }

  test("exponent strings: \"6.05E2\" is the node \"605\" in another notation") {
    assert(exponentForm("605") == "6.05E2" && exponentForm("605.0") == "6.050E2" && exponentForm("0.05") == "5E-2")
    assert(NumericHierarchy.precision("6.05E2") == NumericHierarchy.precision("605"))
    assert(!isAnc("6.05E2", "605") && !isAnc("605", "6.05E2"))
    assert(isAnc("6.05E2", "605.196") && isAnc("6.1E2", "605.196") && isAnc("6.05E2", "605.0") && !isAnc("6.05E2", "6.1E2"))
    for (_ <- 1 to 200) {
      val (a, d) = generalizedPair()
      val (x, y) = (plainValue(), plainValue())
      for ((p, q) <- Seq(a -> d, d -> a, x -> y, y -> x); (ep, eq) <- Seq(exponentForm(p) -> q, p -> exponentForm(q), exponentForm(p) -> exponentForm(q)))
        assert(isAnc(ep, eq) == isAnc(p, q), s"$ep vs $eq against $p vs $q")
      assert(isAnc(a, d), s"a=$a d=$d")
      assert(NumericHierarchy.precision(exponentForm(x)) == NumericHierarchy.precision(x) && !isAnc(x, exponentForm(x)), s"x=$x")
    }
  }

  for (attr <- StockGen.attrs; seed <- Seq(1L, 2L)) {
    test(s"${attr.name} seed=$seed: TDH estimate error never exceeds MEAN by much") {
      val ds = StockGen.generate(attr, StockGen.Config(numSymbols = 150, seed = seed))
      val tdh = Metrics.mae(ds.gold, NumericAlgorithms.tdh(ds))
      val mean = Metrics.mae(ds.gold, NumericAlgorithms.mean(ds))
      assert(tdh <= mean * 1.05 + 1e-9, s"tdh=$tdh mean=$mean")
    }

    test(s"${attr.name} seed=$seed: every algorithm's estimate is a finite number per object") {
      val ds = StockGen.generate(attr, StockGen.Config(numSymbols = 80, seed = seed))
      Seq(
        NumericAlgorithms.tdh(ds), NumericAlgorithms.lca(ds), NumericAlgorithms.vote(ds),
        NumericAlgorithms.crh(ds), NumericAlgorithms.catd(ds), NumericAlgorithms.mean(ds),
      ).foreach(est => est.foreach(x => assert(java.lang.Double.isFinite(x))))
    }
  }

  test("views of a single-claim object are trivial but valid") {
    val ds = repro.core.NumericDataset.fromClaims(1, 1, Seq((0, 0, "42.5")), Array(42.5))
    assert(ds.views(0).nCands == 1 && !ds.views(0).inOH)
    assert(NumericAlgorithms.tdh(ds)(0) == 42.5)
    assert(NumericAlgorithms.mean(ds)(0) == 42.5)
  }
}
