package repro.core

import repro.{SparkSpec, TestData}

class RadiusSearchSpec extends SparkSpec {

  private def unit(pts: Array[Array[Double]]): Array[WeightedPoint] =
    pts.map(WeightedPoint(_, 1L))

  test("found clustering leaves uncovered weight <= z") {
    TestData.forSeeds(10) { s =>
      val t = unit(TestData.uniform(40, 3, s))
      val sr = RadiusSearch.search(t, 3, 5L, 0.1)
      assert(sr.clustering.uncoveredWeight <= 5L)
    }
  }

  test("radius 0 returned when k points cover everything (k >= distinct points)") {
    val t = unit(Array(Array(0.0), Array(0.0), Array(1.0)))
    val sr = RadiusSearch.search(t, 2, 0L, 0.1)
    assert(sr.radius == 0.0)
  }

  test("radius 0 returned when z swallows everything") {
    val t = unit(TestData.uniform(10, 2, 1L))
    val sr = RadiusSearch.search(t, 1, 10L, 0.1)
    assert(sr.radius == 0.0 && sr.probes == 1)
  }

  test("search radius is close to minimal: slightly smaller radius is infeasible") {
    TestData.forSeeds(8) { s =>
      val t = unit(TestData.uniform(30, 2, s))
      val (k, z, eps) = (2, 3L, 0.2)
      val delta = eps / (3 + 4 * eps)
      val sr = RadiusSearch.search(t, k, z, eps, seed = s)
      assert(sr.lowerBound > 0 && sr.radius <= (1 + delta) * sr.lowerBound * (1 + 1e-12),
             s"seed=$s radius=${sr.radius} lowerBound=${sr.lowerBound}")
      assert(OutliersCluster.run(t, k, sr.lowerBound * (1 - 1e-9), eps).uncoveredWeight > z, s"seed=$s")
    }
  }

  test("returned clustering equals OutliersCluster.run at the returned radius") {
    TestData.forSeeds(8) { s =>
      val t = TestData.uniform(70, 3, s).zipWithIndex.map { case (v, i) => WeightedPoint(v, (i % 4) + 1L) }
      val (k, z, eps) = (3, 8L, 0.1)
      val sr = RadiusSearch.search(t, k, z, eps, seed = s)
      val ref = OutliersCluster.run(t, k, sr.radius, eps)
      assert(sr.clustering.centers.map(_.toSeq).toSeq == ref.centers.map(_.toSeq).toSeq, s"seed=$s")
      assert(sr.clustering.uncoveredWeight == ref.uncoveredWeight, s"seed=$s")
    }
  }

  test("r_{k+z}(T)/2 lower-bounds the exact optimum r*_{k,z}") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(12, 2, s)
      val (k, z) = (2, 2)
      val sr = RadiusSearch.search(unit(pts), k, z.toLong, 0.1, seed = s)
      val rStar = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      assert(sr.optimumLowerBound > 0 && sr.optimumLowerBound <= rStar + 1e-12,
             s"seed=$s bound=${sr.optimumLowerBound} rStar=$rStar")
    }
  }

  test("approximation bound vs exact optimum (3+eps shape, unit weights)") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(12, 2, s)
      val k = 2; val z = 2
      val hatEps = 0.1
      val sr = RadiusSearch.search(unit(pts), k, z.toLong, hatEps)
      val achieved = Points.radiusWithOutliers(pts, sr.clustering.centers, z)
      val rStar = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      val delta = hatEps / (3 + 4 * hatEps)
      // Theorem 2 on the full set: (3+4eps)(1+delta) r* bound.
      assert(achieved <= (3 + 4 * hatEps) * (1 + delta) * rStar + 1e-9,
             s"seed=$s achieved=$achieved rStar=$rStar")
    }
  }

  test("weighted search respects weights when counting outliers") {
    // One remote point of weight 5 cannot be outlier-budgeted with z=3: the
    // (3+4eps)r removal ball must reach it, forcing r >= ~1000/3. With z=5
    // it may be discarded, so r collapses to the near-pair scale.
    val t = Array(
      WeightedPoint(Array(0.0), 10L),
      WeightedPoint(Array(1.0), 10L),
      WeightedPoint(Array(1000.0), 5L))
    val srTight = RadiusSearch.search(t, 1, 3L, 0.0)
    assert(srTight.radius >= 999.0 / 3.0 - 1e-6, s"got ${srTight.radius}")
    assert(srTight.clustering.uncoveredWeight <= 3L)
    val srLoose = RadiusSearch.search(t, 1, 5L, 0.0)
    assert(srLoose.radius <= 1.0 + 1e-9, s"got ${srLoose.radius}") // may discard it
  }

  test("probes stay modest (binary + geometric, not linear scan)") {
    val t = unit(TestData.uniform(200, 3, 5L))
    val (k, z, eps, seed) = (4, 10, 0.2, 42L)
    val sr = RadiusSearch.search(t, k, z.toLong, eps, seed)
    // The certified bracket of the same input: non-degenerate, so no r = 0 probe.
    val spread = 3 + 4 * eps
    val trace = GMM.coreset(t.map(_.vec), CoresetSpec.FixedSize(k + z), seed)
    val (lo, hi) = (trace.radiusAfter(k + z - 1) / (2 * spread), trace.radiusAfter(k - 1))
    assert(lo > 0 && hi > lo)
    val bigJ = math.ceil(math.log(hi / lo) / math.log1p(eps / spread)).toInt
    val perPass = 32 - Integer.numberOfLeadingZeros(math.ceil(math.sqrt(bigJ)).toInt) // ⌈log₂(⌈√J⌉+1)⌉
    assert(sr.probes <= 1 + 2 * perPass, s"probes=${sr.probes} J=$bigJ")
  }

  test("empty coreset rejected") {
    intercept[IllegalArgumentException](RadiusSearch.search(Array.empty, 1, 0L, 0.1))
  }

  test("mixed dimensions rejected") {
    val t = Array(WeightedPoint(Array(0.0, 0.0), 1L), WeightedPoint(Array(1.0, 1.0, 5.0), 1L))
    intercept[IllegalArgumentException](RadiusSearch.search(t, 1, 0L, 0.1))
  }

  test("non-finite coordinates rejected") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val t = Array(WeightedPoint(Array(0.0, 0.0), 1L), WeightedPoint(Array(1.0, bad), 1L))
      intercept[IllegalArgumentException](RadiusSearch.search(t, 1, 0L, 0.1))
    }
  }

  test("weights below 1 rejected") {
    val t = Array(WeightedPoint(Array(0.0), 3L), WeightedPoint(Array(1.0), 0L))
    intercept[IllegalArgumentException](RadiusSearch.search(t, 1, 0L, 0.1))
  }

  test("duplicate-heavy input: r = 0 infeasible, bracket from the closest distinct pair") {
    // 5 distinct points, 20 copies each: GMM stops at radius 0 after 5 centers.
    val base = TestData.uniform(5, 2, 4L)
    val t = unit(Array.tabulate(100)(i => base(i % 5)))
    val (k, z, eps) = (2, 3L, 0.1)
    val delta = eps / (3 + 4 * eps)
    val sr = RadiusSearch.search(t, k, z, eps)
    val minPair = (for (i <- 0 until 5; j <- i + 1 until 5) yield Points.dist(base(i), base(j))).min
    assert(sr.probes > 1 && sr.optimumLowerBound == 0.0)
    assert(sr.clustering.uncoveredWeight <= z)
    assert(sr.lowerBound >= minPair / (3 + 4 * eps) - 1e-12)
    assert(sr.radius <= (1 + delta) * sr.lowerBound * (1 + 1e-12))
  }

  test("|T| <= k+z with r = 0 infeasible still meets the (1+delta) bracket") {
    val t = TestData.uniform(5, 2, 6L).map(WeightedPoint(_, 10L))
    val (k, z, eps) = (2, 3L, 0.05)
    val delta = eps / (3 + 4 * eps)
    val sr = RadiusSearch.search(t, k, z, eps)
    assert(sr.radius > 0 && sr.clustering.uncoveredWeight <= z)
    assert(sr.radius <= (1 + delta) * sr.lowerBound * (1 + 1e-12))
    assert(OutliersCluster.run(t, k, sr.lowerBound * (1 - 1e-9), eps).uncoveredWeight > z)
  }

  test("eps-hat = 0 uses the 1% tolerance") {
    TestData.forSeeds(5) { s =>
      val t = unit(TestData.uniform(60, 3, s))
      val sr = RadiusSearch.search(t, 3, 4L, 0.0, seed = s)
      assert(sr.clustering.uncoveredWeight <= 4L)
      assert(sr.radius <= 1.01 * sr.lowerBound * (1 + 1e-12), s"seed=$s")
    }
  }

  test("single-point coreset returns radius 0") {
    val sr = RadiusSearch.search(Array(WeightedPoint(Array(3.0), 7L)), 1, 0L, 0.1)
    assert(sr.radius == 0.0 && sr.clustering.uncoveredWeight == 0L)
  }

  test("planted clusters with planted outliers: search finds the cluster scale") {
    val (pts, _) = TestData.blobs(3, 30, 2, 7L, sep = 1000.0, std = 1.0)
    val withFar = pts ++ Array(Array(1e6, 0.0), Array(-1e6, 0.0))
    val t = unit(withFar)
    val sr = RadiusSearch.search(t, 3, 2L, 0.1)
    assert(sr.radius < 50.0, s"radius=${sr.radius}") // cluster scale, not outlier scale
    assert(Points.radiusWithOutliers(withFar, sr.clustering.centers, 2) < 20.0)
  }
}
