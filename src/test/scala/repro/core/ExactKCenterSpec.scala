package repro.core

import repro.{SparkSpec, TestData}

class ExactKCenterSpec extends SparkSpec {

  test("k=1 optimum is the min over points of the max distance") {
    val pts = TestData.uniform(9, 2, 1L)
    val expected = pts.map(c => pts.map(Points.dist(_, c)).max).min
    assert(math.abs(ExactKCenter.optimalRadiusWithOutliers(pts, 1, 0) - expected) < 1e-12)
  }

  test("k >= n gives radius 0") {
    val pts = TestData.uniform(4, 2, 2L)
    assert(ExactKCenter.optimalRadiusWithOutliers(pts, 4, 0) == 0.0)
    assert(ExactKCenter.optimalRadiusWithOutliers(pts, 9, 0) == 0.0)
  }

  test("optimum is non-increasing in k") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(10, 2, s)
      val rs = (1 to 5).map(ExactKCenter.optimalRadiusWithOutliers(pts, _, 0))
      rs.sliding(2).foreach { case Seq(a, b) => assert(b <= a + 1e-12) }
    }
  }

  test("two well-separated pairs with k=2 have optimum = half-pair distance 0") {
    val pts = Array(Array(0.0), Array(1.0), Array(100.0), Array(101.0))
    val r = ExactKCenter.optimalRadiusWithOutliers(pts, 2, 0)
    assert(math.abs(r - 1.0) < 1e-12) // center at one point of each pair
  }

  test("optimum lower-bounds every feasible solution") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(11, 3, s)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, 3, 0)
      assert(Points.radiusWithOutliers(pts, GMM.coreset(pts, CoresetSpec.FixedSize(3), 0L).centers, 0) >= opt - 1e-12)
    }
  }

  test("outlier optimum is non-increasing in z") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(10, 2, s)
      val rs = (0 to 4).map(ExactKCenter.optimalRadiusWithOutliers(pts, 2, _))
      rs.sliding(2).foreach { case Seq(a, b) => assert(b <= a + 1e-12) }
    }
  }

  test("Eq. 1: r*_{k+z}(S) <= r*_{k,z}(S)") {
    TestData.forSeeds(8) { s =>
      val pts = TestData.uniform(10, 2, s)
      val k = 2; val z = 2
      assert(ExactKCenter.optimalRadiusWithOutliers(pts, k + z, 0) <=
             ExactKCenter.optimalRadiusWithOutliers(pts, k, z) + 1e-12)
    }
  }

  test("outlier optimum ignores a planted far point") {
    val pts = TestData.uniform(9, 2, 3L, box = 1.0) :+ Array(1e5, 1e5)
    val rZ = ExactKCenter.optimalRadiusWithOutliers(pts, 1, 1)
    assert(rZ < 2.0) // the far point is discarded
    assert(ExactKCenter.optimalRadiusWithOutliers(pts, 1, 0) > 1e4) // without outliers it dominates
  }

  test("z=0 outlier optimum equals the plain optimum") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(9, 2, s)
      // The plain optimum by brute force: min over 3-subsets of max_s min_c d(s, c).
      val plain = pts.indices.combinations(3).map(c => pts.map(p => c.map(i => Points.dist(p, pts(i))).min).max).min
      assert(math.abs(ExactKCenter.optimalRadiusWithOutliers(pts, 3, 0) - plain) < 1e-12)
    }
  }

  test("k+z >= n gives outlier radius 0") {
    val pts = TestData.uniform(5, 2, 4L)
    assert(ExactKCenter.optimalRadiusWithOutliers(pts, 3, 2) == 0.0)
  }
}
