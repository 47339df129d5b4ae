package repro.streaming

import repro.core.{ExactKCenter, Points}
import repro.{SparkSpec, TestData}

/** CoresetOutliers and BaseOutliers (k-center with z outliers, Fig. 5 actors). */
class OutlierStreamAlgosSpec extends SparkSpec {

  private def withFar(pts: Array[Array[Double]], far: Double, count: Int): Array[Array[Double]] = {
    val dim = pts.head.length
    pts ++ Array.tabulate(count) { i =>
      Array.tabulate(dim)(j => if (j == 0) far * (i + 1) else 0.0)
    }
  }

  test("CoresetOutliers returns at most k centers") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(300, 3, s)
      val a = new CoresetOutliers(4, 10, 2)
      pts.foreach(a.update)
      assert(a.result().centers.length <= 4)
    }
  }

  test("CoresetOutliers space accounting is mu*(k+z)") {
    assert(new CoresetOutliers(5, 20, 3).space == 75)
  }

  test("CoresetOutliers discards planted outliers (radius at cluster scale)") {
    val (clean, _) = TestData.blobs(3, 80, 2, 4L, sep = 500.0, std = 1.0)
    val pts = withFar(clean, 1e6, 3)
    val a = new CoresetOutliers(3, 3, 4)
    new scala.util.Random(1L).shuffle(pts.toSeq).foreach(a.update)
    val sol = a.result()
    assert(Points.radiusWithOutliers(pts, sol.centers, 3) < 50.0)
  }

  test("CoresetOutliers quality: bounded multiple of optimum on tiny instances") {
    TestData.forSeeds(6) { s =>
      val pts = TestData.uniform(40, 2, s)
      val (k, z) = (3, 3)
      val a = new CoresetOutliers(k, z, 8)
      pts.foreach(a.update)
      val r = Points.radiusWithOutliers(pts, a.result().centers, z)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      assert(r <= 25 * opt + 1e-9, s"seed=$s r=$r opt=$opt")
    }
  }

  test("CoresetOutliers reports the search's probes and a certified lower bound on r*_{k,z}") {
    TestData.forSeeds(4) { s =>
      val pts = TestData.uniform(14, 2, s)
      val a = new CoresetOutliers(2, 2, 2)
      pts.foreach(a.update)
      val sol = a.result()
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, 2, 2)
      // The bound needs k+z+1 distinct coreset points; merges may leave fewer.
      assert(sol.probes >= 1 && (sol.optimumLowerBound > 0) == (sol.coresetSize > 4) &&
             sol.optimumLowerBound <= opt + 1e-12,
             s"seed=$s probes=${sol.probes} size=${sol.coresetSize} bound=${sol.optimumLowerBound} opt=$opt")
    }
  }

  test("CoresetOutliers coreset size is bounded by the space budget") {
    val pts = TestData.uniform(500, 3, 9L)
    val a = new CoresetOutliers(2, 8, 2)
    pts.foreach(a.update)
    assert(a.result().coresetSize <= a.space)
  }

  test("BaseOutliers returns at most k centers") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(200, 3, s)
      val a = new BaseOutliers(4, 5, 2)
      pts.foreach(a.update)
      assert(a.result().length <= 4)
      assert(a.pointsProcessed == 200L)
    }
  }

  test("BaseOutliers space accounting is m*(k+1)*(z+1)") {
    assert(new BaseOutliers(4, 9, 2).space == 2 * 5 * 10)
  }

  test("BaseOutliers discards planted outliers on clustered data") {
    val (clean, _) = TestData.blobs(3, 80, 2, 6L, sep = 500.0, std = 1.0)
    val pts = withFar(clean, 1e6, 3)
    val a = new BaseOutliers(3, 3, 4)
    new scala.util.Random(2L).shuffle(pts.toSeq).foreach(a.update)
    assert(Points.radiusWithOutliers(pts, a.result(), 3) < 100.0)
  }

  test("BaseOutliers survives a stream consisting only of a tight blob") {
    val p = Array(1.0, 1.0)
    val a = new BaseOutliers(2, 3, 2)
    (0 until 100).foreach(i => a.update(Array(1.0 + i * 1e-9, 1.0)))
    assert(a.result().nonEmpty)
  }

  test("BaseOutliers quality bounded on tiny instances") {
    TestData.forSeeds(6) { s =>
      val pts = TestData.uniform(60, 2, s)
      val (k, z) = (3, 4)
      val a = new BaseOutliers(k, z, 4)
      pts.foreach(a.update)
      val r = Points.radiusWithOutliers(pts, a.result(), z)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      assert(r <= 40 * opt + 1e-6, s"seed=$s r=$r opt=$opt")
    }
  }

  test("streams shorter than the init buffer still answer") {
    val a = new BaseOutliers(3, 5, 2)
    TestData.uniform(4, 2, 1L).foreach(a.update)
    assert(a.result().nonEmpty)
    val c = new CoresetOutliers(3, 5, 2)
    TestData.uniform(4, 2, 1L).foreach(c.update)
    assert(c.result().centers.nonEmpty)
  }

  test("BaseOutliers rejects points of another dimension or with non-finite coordinates") {
    for (after <- Seq(2, 30)) { // while buffering the first k+z+1 points, and after
      val a = new BaseOutliers(3, 2, 2)
      TestData.uniform(after, 3, 1L).foreach(a.update)
      for (bad <- Seq(Array(1.0, 2.0), Array(1.0, 2.0, 3.0, 4.0), Array(1.0, Double.NaN, 3.0),
                      Array(Double.PositiveInfinity, 2.0, 3.0), Array(1.0, 2.0, Double.NegativeInfinity)))
        intercept[IllegalArgumentException](a.update(bad))
      assert(a.pointsProcessed == after)
    }
  }

  test("BaseOutliers keeps doubling r until the pool fits after an all-duplicate prefix") {
    // The duplicate prefix sets r0 = 5e-13; the spread points need about 240
    // doublings before any two of them share a 2r-ball.
    val (k, z) = (2, 1)
    val a = new BaseOutliers(k, z, 2)
    (0 to k + z).foreach(_ => a.update(Array(0.0, 0.0)))
    (1 to 8).foreach(i => a.update(Array(i * 1e60, 0.0)))
    assert(a.poolSizes.nonEmpty && a.poolSizes.forall(_ < a.poolCap), a.poolSizes)
    assert(a.result().nonEmpty)
  }
}
