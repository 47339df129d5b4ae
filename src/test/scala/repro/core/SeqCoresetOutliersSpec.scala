package repro.core

import repro.{SparkSpec, TestData}

class SeqCoresetOutliersSpec extends SparkSpec {

  private def fixed(tau: Int) = CoresetSpec.FixedSize(tau)

  test("fixed-size run uses exactly tau coreset points") {
    val pts = TestData.uniform(200, 3, 1L)
    val res = SeqCoresetOutliers.run(pts, 3, 5, fixed(24))
    assert(res.coresetSize == 24)
  }

  test("an empty input is rejected with an IllegalArgumentException") {
    val none = Array.empty[Array[Double]]
    intercept[IllegalArgumentException](SeqCoresetOutliers.run(none, 2, 1, fixed(6)))
    intercept[IllegalArgumentException](SeqCoresetOutliers.run(none, 2, 1, CoresetSpec.Precision(0.5, 3), hatEps = 0.5))
  }

  test("returns at most k centers") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(100, 3, s)
      val res = SeqCoresetOutliers.run(pts, 4, 6, fixed(40))
      assert(res.centers.length <= 4)
    }
  }

  test("solution quality close to CharikarEtAl on clustered data (Fig. 8 shape)") {
    val (pts0, _) = TestData.blobs(4, 60, 3, 5L, sep = 200.0, std = 1.0)
    val pts = pts0 ++ Array(Array(1e5, 0.0, 0.0), Array(-1e5, 0.0, 0.0))
    val z = 2; val k = 4
    val ours = SeqCoresetOutliers.run(pts, k, z, fixed(8 * (k + z)))
    val base = CharikarEtAl.run(pts, k, z)
    val rOurs = Points.radiusWithOutliers(pts, ours.centers, z)
    val rBase = Points.radiusWithOutliers(pts, base.centers, z)
    assert(rOurs <= 2.0 * rBase + 1e-9, s"ours=$rOurs base=$rBase")
    assert(rOurs < 20.0) // cluster scale, outliers discarded
  }

  test("larger mu does not hurt quality on average") {
    val (pts, _) = TestData.blobs(5, 40, 3, 9L, sep = 300.0, std = 2.0)
    val k = 5; val z = 4
    val radii = Seq(1, 8).map { mu =>
      val rs = TestData.forSeedsCollect(5) { s =>
        val res = SeqCoresetOutliers.run(pts, k, z, fixed(mu * (k + z)), seed = s)
        Points.radiusWithOutliers(pts, res.centers, z)
      }
      rs.sum / rs.size
    }
    assert(radii(1) <= radii(0) * 1.25 + 1e-9, s"mu=1 avg ${radii(0)} vs mu=8 avg ${radii(1)}")
  }

  test("epsilon-driven run meets the stopping rule and covers") {
    val pts = TestData.uniform(300, 2, 3L)
    val res = SeqCoresetOutliers.run(pts, 3, 5, CoresetSpec.Precision(0.5, 3 + 5), hatEps = 0.5)
    assert(res.coresetSize >= 8) // at least k+z
    assert(res.centers.nonEmpty)
  }

  test("reports the search's probes and a certified lower bound on r*_{k,z}") {
    TestData.forSeeds(4) { s =>
      val pts = TestData.uniform(12, 2, s)
      val res = SeqCoresetOutliers.run(pts, 2, 2, fixed(8), seed = s)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, 2, 2)
      assert(res.probes >= 1 && res.optimumLowerBound > 0 && res.optimumLowerBound <= opt + 1e-12,
             s"seed=$s probes=${res.probes} bound=${res.optimumLowerBound} opt=$opt")
    }
  }

  test("a coreset of exactly k+z points still certifies a lower bound on r*_{k,z} (round-1 trace)") {
    TestData.forSeeds(6) { s =>
      val pts = TestData.uniform(12, 2, s)
      for ((k, z) <- Seq((2, 2), (1, 3), (3, 1))) {
        val opt = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
        val byTau = SeqCoresetOutliers.run(pts, k, z, fixed(k + z), seed = s)
        assert(byTau.coresetSize == k + z)
        val byEps = SeqCoresetOutliers.run(pts, k, z, CoresetSpec.Precision(1.0, k + z), hatEps = 1.0, seed = s)
        for (res <- Seq(byTau, byEps))
          assert(res.optimumLowerBound > 0 && res.optimumLowerBound <= opt + 1e-12,
                 s"seed=$s k=$k z=$z bound=${res.optimumLowerBound} opt=$opt")
      }
    }
  }

  test("timings are recorded") {
    val pts = TestData.uniform(100, 2, 4L)
    val res = SeqCoresetOutliers.run(pts, 2, 3, fixed(20))
    assert(res.round1Millis >= 0 && res.round2Millis >= 0)
  }
}
