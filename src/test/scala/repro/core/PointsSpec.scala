package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestData}

class PointsSpec extends SparkSpec {

  test("dist of identical points is zero") {
    val p = Array(1.0, 2.0, 3.0)
    assert(Points.dist(p, p) == 0.0)
    assert(Points.sqDist(p, p) == 0.0)
  }

  test("dist matches hand-computed 3-4-5 triangle") {
    assert(Points.dist(Array(0.0, 0.0), Array(3.0, 4.0)) == 5.0)
  }

  test("sqDist is the square of dist") {
    TestData.forSeeds(20) { s =>
      val Array(a, b) = TestData.uniform(2, 5, s)
      assert(math.abs(Points.sqDist(a, b) - math.pow(Points.dist(a, b), 2)) < 1e-9)
    }
  }

  test("dist is symmetric") {
    TestData.forSeeds(20) { s =>
      val Array(a, b) = TestData.uniform(2, 4, s)
      assert(Points.dist(a, b) == Points.dist(b, a))
    }
  }

  test("dist satisfies the triangle inequality") {
    TestData.forSeeds(50) { s =>
      val Array(a, b, c) = TestData.uniform(3, 6, s)
      assert(Points.dist(a, c) <= Points.dist(a, b) + Points.dist(b, c) + 1e-12)
    }
  }

  test("sqDistWithin is > limit iff sqDist is, and equals sqDist otherwise (property)") {
    // Limits: 0, ∞, random, sqDist itself and its neighbours, and a prefix
    // sum of sqDist's terms (the early exit compares block-end prefixes).
    val gen = for {
      dim <- Gen.oneOf((1 to 17) :+ 50)
      scale <- Gen.oneOf(1.0, 1e-3, 1e6)
      a <- Gen.listOfN(dim, Gen.choose(-scale, scale))
      b <- Gen.listOfN(dim, Gen.oneOf(Gen.choose(-scale, scale), Gen.const(0.0)))
      cut <- Gen.choose(0, dim)
      pick <- Gen.choose(0, 6)
      u <- Gen.choose(0.0, 2.0)
    } yield {
      val (av, bv) = (a.toArray, b.toArray)
      val full = Points.sqDist(av, bv)
      val prefix = Points.sqDist(av.take(cut), bv)
      val limit = Seq(0.0, Double.PositiveInfinity, u * full, full, math.nextDown(full),
                      math.nextUp(full), prefix)(pick)
      (av, bv, limit)
    }
    val prop = Prop.forAll(gen) { case (a, b, limit) =>
      val full = Points.sqDist(a, b)
      val got = Points.sqDistWithin(a, b, limit)
      (got > limit) == (full > limit) && (got > limit || java.lang.Double.compare(got, full) == 0)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(5L)), prop)
    assert(res.passed, res.status)
  }

  test("sqDistToSet is the min over centers") {
    TestData.forSeeds(20) { s =>
      val pts = TestData.uniform(10, 3, s)
      val p = pts.head
      val cs = pts.tail
      assert(Points.sqDistToSet(p, cs) == cs.map(Points.sqDist(p, _)).min)
    }
  }

  test("closestIndex returns the argmin center") {
    TestData.forSeeds(20) { s =>
      val pts = TestData.uniform(8, 3, s)
      val p = pts.head
      val cs = pts.tail
      val i = Points.closestIndex(p, cs)
      assert(Points.sqDist(p, cs(i)) == cs.map(Points.sqDist(p, _)).min)
    }
  }

  test("closestIndex on empty centers is -1") {
    assert(Points.closestIndex(Array(1.0), Array.empty) == -1)
  }

  test("radius is the max point-to-set distance") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(30, 4, s)
      val cs = pts.take(3)
      val expected = pts.map(p => math.sqrt(Points.sqDistToSet(p, cs))).max
      assert(math.abs(Points.radiusWithOutliers(pts, cs, 0) - expected) < 1e-9)
    }
  }

  test("radius is zero when every point is a center") {
    val pts = TestData.uniform(5, 2, 1L)
    assert(Points.radiusWithOutliers(pts, pts, 0) == 0.0)
  }

  test("radiusWithOutliers(z=0) equals radius") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(25, 3, s)
      val cs = pts.take(2)
      // The largest distance, bit for bit: sqrt is monotone and correctly rounded.
      val radius = pts.map(p => cs.map(Points.dist(p, _)).min).max
      assert(Points.radiusWithOutliers(pts, cs, 0) == radius)
      // z = -1 would read the z = 0 radius off an empty heap.
      intercept[IllegalArgumentException](Points.radiusWithOutliers(pts, cs, -1))
    }
  }

  test("radiusWithOutliers drops exactly the z farthest points") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(30, 3, s)
      val cs = pts.take(2)
      val ds = pts.map(p => math.sqrt(Points.sqDistToSet(p, cs))).sorted
      for (z <- Seq(1, 3, 7)) {
        val expected = ds(ds.length - 1 - z)
        assert(math.abs(Points.radiusWithOutliers(pts, cs, z) - expected) < 1e-9,
               s"z=$z seed=$s")
      }
    }
  }

  test("radiusWithOutliers with z >= n is zero") {
    val pts = TestData.uniform(4, 2, 3L)
    assert(Points.radiusWithOutliers(pts, pts.take(1), 10) == 0.0)
  }

  test("radiusWithOutliers ignores an injected far outlier") {
    val pts = TestData.uniform(20, 2, 5L, box = 1.0)
    val withOut = pts :+ Array(1e6, 1e6)
    val cs = pts.take(2)
    assert(Points.radiusWithOutliers(withOut, cs, 1) <= Points.radiusWithOutliers(pts, cs, 0) + 1e-9)
  }

  test("WeightedPoint holds vector and weight") {
    val wp = WeightedPoint(Array(1.0, 2.0), 7L)
    assert(wp.weight == 7L && wp.vec.sameElements(Array(1.0, 2.0)))
  }
}
