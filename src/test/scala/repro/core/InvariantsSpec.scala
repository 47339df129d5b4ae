package repro.core

import repro.{SparkSpec, TestData}

/** Cross-algorithm invariants tying the pieces together: the orderings and
  * bounds the paper's analysis (Lemmas 1–6, Eq. 1) predicts must hold
  * between GMM, OutliersCluster, the radius search and the baselines.
  */
class InvariantsSpec extends SparkSpec {

  private def unit(pts: Array[Array[Double]]): Array[WeightedPoint] =
    pts.map(WeightedPoint(_, 1L))

  test("GMM radius never beats the exact optimum (sanity ordering)") {
    TestData.forSeeds(8) { s =>
      val pts = TestData.uniform(12, 2, s)
      for (k <- 1 to 3)
        assert(Points.radiusWithOutliers(pts, GMM.coreset(pts, CoresetSpec.FixedSize(k), 0L).centers, 0) >=
               ExactKCenter.optimalRadiusWithOutliers(pts, k, 0) - 1e-12)
    }
  }

  test("coreset radius (full set vs coreset centers) shrinks as tau grows") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(150, 3, s)
      val radii = Seq(5, 10, 20, 40).map(tau =>
        Points.radiusWithOutliers(pts, GMM.coreset(pts, CoresetSpec.FixedSize(tau), 0L).centers, 0))
      radii.sliding(2).foreach { case Seq(a, b) => assert(b <= a + 1e-12, s"seed=$s $radii") }
    }
  }

  test("weighing a coreset never changes the vectors, only attaches weights") {
    val pts = TestData.uniform(60, 2, 1L)
    val core = GMM.coreset(pts, CoresetSpec.FixedSize(8), 0L).centers
    val weighted = GMM.weigh(pts, core)
    assert(weighted.map(_.vec.toSeq) sameElements core.map(_.toSeq))
  }

  test("CharikarEtAl never beats the exact optimum") {
    TestData.forSeeds(6) { s =>
      val pts = TestData.uniform(11, 2, s)
      val res = CharikarEtAl.run(pts, 2, 2)
      val achieved = Points.radiusWithOutliers(pts, res.centers, 2)
      assert(achieved >= ExactKCenter.optimalRadiusWithOutliers(pts, 2, 2) - 1e-9)
    }
  }

  test("SeqCoresetOutliers with tau = n degenerates to CharikarEtAl-quality") {
    TestData.forSeeds(4) { s =>
      val pts = TestData.uniform(40, 2, s)
      // tau = n: the coreset IS the input (unit weights), so the search
      // solves the same instance CharikarEtAl solves (modulo eps-hat).
      val full = SeqCoresetOutliers.run(pts, 3, 4, CoresetSpec.FixedSize(pts.length), hatEps = 0.0, seed = s)
      val base = CharikarEtAl.run(pts, 3, 4, seed = s)
      val rFull = Points.radiusWithOutliers(pts, full.centers, 4)
      val rBase = Points.radiusWithOutliers(pts, base.centers, 4)
      assert(math.abs(rFull - rBase) <= math.max(rFull, rBase) * 0.35 + 1e-9,
             s"seed=$s full=$rFull base=$rBase")
    }
  }

  test("OutliersCluster with huge r picks one ball that covers everything") {
    val pts = TestData.uniform(40, 3, 2L)
    val res = OutliersCluster.run(unit(pts), 5, 1e6, 0.0)
    assert(res.centers.length == 1 && res.uncoveredWeight == 0)
  }

  test("radius search result is feasible and its clustering consistent") {
    TestData.forSeeds(6) { s =>
      val t = unit(TestData.uniform(50, 3, s))
      val sr = RadiusSearch.search(t, 4, 6L, 0.15)
      assert(sr.clustering.uncoveredWeight <= 6L)
      assert(sr.clustering.centers.length <= 4)
      // The reported clustering really is OutliersCluster at the reported r.
      val re = OutliersCluster.run(t, 4, sr.radius, 0.15)
      assert(re.uncoveredWeight == sr.clustering.uncoveredWeight)
    }
  }

  test("doubling eps-hat widens the allowed radius gap but keeps feasibility") {
    TestData.forSeeds(5) { s =>
      val t = unit(TestData.uniform(40, 2, s))
      val tight = RadiusSearch.search(t, 3, 5L, 0.05)
      val loose = RadiusSearch.search(t, 3, 5L, 0.5)
      assert(tight.clustering.uncoveredWeight <= 5L)
      assert(loose.clustering.uncoveredWeight <= 5L)
      // Bigger eps-hat means bigger covering balls, so the minimal feasible
      // radius cannot grow by more than the candidate-grid tolerance.
      assert(loose.radius <= tight.radius * 1.25 + 1e-9, s"seed=$s ${loose.radius} ${tight.radius}")
    }
  }

  test("Par.forRange visits every index exactly once") {
    val n = 1000
    val hits = new java.util.concurrent.atomic.AtomicIntegerArray(n)
    Par.forRange(n)(i => hits.incrementAndGet(i))
    (0 until n).foreach(i => assert(hits.get(i) == 1))
  }

  test("Par.forRange with n = 0 is a no-op") {
    Par.forRange(0)(_ => fail("should not be called"))
  }
}
