package repro.core

import repro.{SparkSpec, TestData}

class CharikarEtAlSpec extends SparkSpec {

  test("returns at most k centers") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(30, 3, s)
      assert(CharikarEtAl.run(pts, 4, 3).centers.length <= 4)
    }
  }

  test("3-approximation-with-tolerance vs exact optimum on tiny instances") {
    TestData.forSeeds(12) { s =>
      val pts = TestData.uniform(11, 2, s)
      val k = 2; val z = 2
      val res = CharikarEtAl.run(pts, k, z)
      val achieved = Points.radiusWithOutliers(pts, res.centers, z)
      val rStar = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      // eps-hat = 0 gives the pure 3-approx; the geometric refinement of the
      // search adds at most its (1+delta) = 1.01 tolerance.
      assert(achieved <= 3.0 * 1.01 * rStar + 1e-9, s"seed=$s $achieved vs $rStar")
    }
  }

  test("discards planted far outliers") {
    val (pts, _) = TestData.blobs(2, 20, 2, 3L, sep = 100.0, std = 0.5)
    val all = pts ++ Array(Array(1e5, 1e5), Array(-1e5, 1e5))
    val res = CharikarEtAl.run(all, 2, 2)
    assert(Points.radiusWithOutliers(all, res.centers, 2) < 10.0)
  }

  test("z = 0 still produces a valid k-center solution") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(12, 2, s)
      val res = CharikarEtAl.run(pts, 3, 0)
      val achieved = Points.radiusWithOutliers(pts, res.centers, 0)
      val rStar = ExactKCenter.optimalRadiusWithOutliers(pts, 3, 0)
      assert(achieved <= 3.0 * 1.01 * rStar + 1e-9)
    }
  }

  test("records the number of search probes") {
    val pts = TestData.uniform(40, 2, 9L)
    val res = CharikarEtAl.run(pts, 3, 4)
    assert(res.probes > 0 && res.probes < 200)
  }

  test("radius field matches a feasible OutliersCluster run") {
    val pts = TestData.uniform(25, 2, 11L)
    val res = CharikarEtAl.run(pts, 3, 3)
    val w = OutliersCluster.run(pts.map(WeightedPoint(_, 1L)), 3, res.searchRadius, 0.0).uncoveredWeight
    assert(w <= 3)
  }
}
