package repro.exp

import repro.SparkSpec

/** Unit tests for the experiment-harness plumbing (table rendering, the
  * best-ever ratio and configuration) — the parts every bench output flows
  * through.
  */
class HarnessUnitSpec extends SparkSpec {

  test("render aligns columns and includes every row") {
    val out = Tables.render("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = out.split("\n")
    assert(lines.head == "== t ==")
    assert(lines.length == 5) // title, header, sep, 2 rows
    assert(lines.drop(1).map(_.length).distinct.length == 1) // equal widths
    assert(out.contains("333"))
  }

  test("render handles wide cells by padding the header") {
    val out = Tables.render("t", Seq("x"), Seq(Seq("longvalue")))
    assert(out.contains("| x         |"))
  }

  test("f and f2 format with 3 and 2 decimals") {
    assert(Tables.f(1.23456) == "1.235")
    assert(Tables.f2(1.23456) == "1.23")
  }

  test("Sweep.cells averages each cell and divides by the best run's radius") {
    val runs = Seq(("b", 2.5), ("a", 3.0), ("a", 1.0))
    val cells = Sweep.cells(runs)(_._1)(_._2)
    assert(cells.map(c => (c.key, c.runs, c.radius, c.ratio)) ==
      Seq(("a", Seq(("a", 3.0), ("a", 1.0)), 2.0, 2.0), ("b", Seq(("b", 2.5)), 2.5, 2.5)))
  }

  test("bench config covers all three datasets at outlier parameters of Sec 5.2") {
    val c = ExpConfig.bench
    assert(c.specs.map(_.name).toSet == Set("higgsLike", "powerLike", "wikiLike"))
    assert(c.kOutliers == 20 && c.zOutliers == 200)
  }

  test("smoke config is a strict subset and much smaller") {
    val (s, b) = (ExpConfig.smoke, ExpConfig.bench)
    assert(s.specs.map(_.name).toSet.subsetOf(b.specs.map(_.name).toSet))
    assert(s.sizes.values.max < b.sizes.values.min)
  }

  test("nFor returns the configured size per spec") {
    val c = ExpConfig.bench
    c.specs.foreach(sp => assert(c.nFor(sp) == c.sizes(sp.name)))
  }

  test("experiment sweeps match the paper's parameter grids") {
    assert(Fig2KCenter.mus == Seq(1, 2, 4, 8) && Fig2KCenter.ells == Seq(2, 4, 8, 16))
    assert(Fig3Stream.params == Seq(1, 2, 4, 8, 16))
    assert(Fig4MROutliers.mus == Seq(1, 2, 4, 8) && Fig4MROutliers.Ell == 16)
    assert(Fig5StreamOutliers.params == Seq(1, 2, 4, 8, 16))
    assert(Fig7Speedup.ells == Seq(1, 2, 4, 8, 16))
    assert(Fig8Sequential.mus == Seq(1, 2, 4, 8))
  }

  test("Fig. 7 fixes the union size at 8(16k+6z)") {
    val c = ExpConfig.bench
    val union = 8 * (16 * c.kOutliers + 6 * c.zOutliers)
    assert(union == 12160)
    Fig7Speedup.ells.foreach(ell => assert(union % ell == 0))
  }
}
