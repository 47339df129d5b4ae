package repro.exp

import repro.SparkSpec

/** Runs every figure harness end-to-end at smoke scale: each bench code path
  * is exercised inside `sbt test` so the bench project can't silently rot.
  */
class ExperimentsSmokeSpec extends SparkSpec {

  private val cfg = ExpConfig.smoke

  test("Fig. 2 harness produces a full sweep with sane ratios") {
    val rows = Fig2KCenter.run(spark, cfg)
    assert(rows.size == cfg.specs.size * Fig2KCenter.mus.size * Fig2KCenter.ells.size)
    assert(rows.forall(r => r.ratio >= 1.0 - 1e-9 && r.radius > 0))
    assert(rows.exists(r => math.abs(r.ratio - 1.0) < 1e-6)) // someone is best
    println(Fig2KCenter.render(rows))
  }

  test("Fig. 3 harness produces both algorithms with positive throughput") {
    val rows = Fig3Stream.run(cfg)
    assert(rows.size == cfg.specs.size * Fig3Stream.params.size * 2)
    assert(rows.forall(r => r.ratio >= 1.0 - 1e-9 && r.throughputKpts > 0))
    assert(rows.map(_.algo).toSet == Set("CoresetStream", "BaseStream"))
    println(Fig3Stream.render(rows))
  }

  test("Fig. 4 harness covers det and randomized with sane ratios") {
    val rows = Fig4MROutliers.run(spark, cfg)
    assert(rows.size == cfg.specs.size * Fig4MROutliers.mus.size * 2)
    assert(rows.forall(r => r.ratio >= 1.0 - 1e-9 && r.cert >= 1.0 - 1e-9))
    assert(rows.map(_.algo).toSet == Set("deterministic", "randomized"))
    // Randomized coresets are smaller than deterministic at equal mu when
    // z >> k (the Sec. 3.2.1 point).
    for (d <- cfg.specs.map(_.name); mu <- Fig4MROutliers.mus) {
      val det = rows.find(r => r.dataset == d && r.algo == "deterministic" && r.mu == mu).get
      val rnd = rows.find(r => r.dataset == d && r.algo == "randomized" && r.mu == mu).get
      assert(rnd.coresetUnion <= det.coresetUnion, s"$d mu=$mu")
    }
    println(Fig4MROutliers.render(rows))
  }

  test("Fig. 5 harness covers both streaming algorithms") {
    val rows = Fig5StreamOutliers.run(cfg)
    assert(rows.size == cfg.specs.size * Fig5StreamOutliers.params.size * 2)
    assert(rows.forall(r => r.ratio >= 1.0 - 1e-9 && r.throughputKpts > 0))
    // CoresetOutliers uses far less space than BaseOutliers at equal param.
    for (d <- cfg.specs.map(_.name); p <- Fig5StreamOutliers.params) {
      val c = rows.find(r => r.dataset == d && r.algo == "CoresetOutliers" && r.param == p).get
      val b = rows.find(r => r.dataset == d && r.algo == "BaseOutliers" && r.param == p).get
      assert(c.space < b.space, s"$d p=$p")
    }
    println(Fig5StreamOutliers.render(rows))
  }

  test("Fig. 6 harness runs the inflation sweep") {
    val rows = Fig6Scale.run(spark, cfg)
    assert(rows.size == cfg.specs.size * Fig6Scale.hs.size)
    rows.groupBy(_.dataset).foreach { case (_, rs) =>
      val byH = rs.sortBy(_.h)
      assert(byH.map(_.n).sliding(2).forall { case Seq(a, b) => b > a })
    }
    println(Fig6Scale.render(rows))
  }

  test("Fig. 7 harness keeps the union size fixed across ell") {
    val rows = Fig7Speedup.run(spark, cfg)
    assert(rows.size == cfg.specs.size * Fig7Speedup.ells.size)
    rows.foreach { r =>
      assert(r.tauPerPart * r.ell == 8 * (16 * cfg.kOutliers + 6 * cfg.zOutliers))
    }
    println(Fig7Speedup.render(rows))
  }

  test("Fig. 8 harness compares CharikarEtAl against the coreset sweep") {
    val rows = Fig8Sequential.run(cfg, sampleN = 400)
    assert(rows.size == cfg.specs.size * (1 + Fig8Sequential.mus.size))
    assert(rows.count(_.algo == "CharikarEtAl") == cfg.specs.size)
    assert(rows.count(_.algo == "MalkomesEtAl(mu=1)") == cfg.specs.size)
    assert(rows.forall(_.radius > 0))
    println(Fig8Sequential.render(rows))
  }

  test("certified ratio objective / optimumLowerBound is at least 1 on a small run") {
    val one = cfg.copy(sizes = Map("higgsLike" -> 400))
    val rows = Fig8Sequential.run(one, sampleN = 400)
    assert(rows.size == 1 + Fig8Sequential.mus.size)
    rows.foreach(r => assert(r.cert >= 1.0 - 1e-9, s"${r.algo} cert=${r.cert}"))
    rows.foreach(r => assert(r.cert.isFinite, r.algo))
  }
}
