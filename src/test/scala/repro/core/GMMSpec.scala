package repro.core

import repro.data.Datasets
import repro.{SparkSpec, TestData}

class GMMSpec extends SparkSpec {

  test("run returns exactly k distinct centers") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(50, 3, s)
      val cs = GMM.coreset(pts, CoresetSpec.FixedSize(7), 0L).centers
      assert(cs.length == 7)
      assert(cs.map(_.toSeq).distinct.length == 7)
    }
  }

  test("run with k >= n returns all points") {
    val pts = TestData.uniform(5, 2, 1L)
    assert(GMM.coreset(pts, CoresetSpec.FixedSize(10), 0L).size == 5)
  }

  test("centers are a subset of the input") {
    val pts = TestData.uniform(40, 3, 2L)
    val inSet = pts.map(_.toSeq).toSet
    assert(GMM.coreset(pts, CoresetSpec.FixedSize(6), 0L).centers.forall(c => inSet(c.toSeq)))
  }

  test("radiusAfter is non-increasing (the paper's incremental property)") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(60, 4, s)
      val tr = GMM.coreset(pts, CoresetSpec.FixedSize(20), 0L)
      tr.radiusAfter.sliding(2).foreach { case Array(a, b) => assert(b <= a + 1e-12) }
    }
  }

  test("trace radii equal recomputed prefix radii") {
    val pts = TestData.uniform(30, 3, 9L)
    val tr = GMM.coreset(pts, CoresetSpec.FixedSize(10), 0L)
    for (j <- 1 to 10) {
      val r = Points.radiusWithOutliers(pts, tr.centers.take(j), 0)
      assert(math.abs(r - tr.radiusAfter(j - 1)) < 1e-9, s"prefix $j")
    }
  }

  test("GMM is a 2-approximation of the exact optimum (Lemma 1 with X = S)") {
    TestData.forSeeds(15) { s =>
      val pts = TestData.uniform(12, 2, s)
      for (k <- Seq(2, 3)) {
        val r = Points.radiusWithOutliers(pts, GMM.coreset(pts, CoresetSpec.FixedSize(k), 0L).centers, 0)
        val opt = ExactKCenter.optimalRadiusWithOutliers(pts, k, 0)
        assert(r <= 2.0 * opt + 1e-9, s"k=$k seed=$s: gmm=$r opt=$opt")
      }
    }
  }

  test("Lemma 1: GMM on a subset has radius <= 2 r*_k(S)") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(14, 2, s)
      val sub = pts.take(8)
      val k = 3
      val rSub = Points.radiusWithOutliers(sub, GMM.coreset(sub, CoresetSpec.FixedSize(k), 0L).centers, 0)
      assert(rSub <= 2.0 * ExactKCenter.optimalRadiusWithOutliers(pts, k, 0) + 1e-9)
    }
  }

  test("GMM recovers well-separated blobs exactly (one center per blob)") {
    val (pts, centers) = TestData.blobs(5, 40, 3, 11L, sep = 1000.0, std = 0.5)
    val cs = GMM.coreset(pts, CoresetSpec.FixedSize(5), 0L).centers
    // Every returned center lies in a distinct blob.
    val assign = cs.map(c => Points.closestIndex(c, centers))
    assert(assign.distinct.length == 5)
    assert(Points.radiusWithOutliers(pts, cs, 0) < 10.0) // ~ blob diameter, << separation
  }

  test("coresetBySize returns exactly tau centers") {
    val pts = TestData.uniform(100, 3, 4L)
    for (tau <- Seq(1, 5, 17, 99)) assert(GMM.coresetBySize(pts, tau, 0L).size == tau)
  }

  test("coresetBySize caps at n when tau > n") {
    val pts = TestData.uniform(8, 2, 4L)
    assert(GMM.coresetBySize(pts, 50, 0L).size == 8)
  }

  test("coresetByEpsilon meets the stopping rule r(T^tau) <= eps/2 r(T^k)") {
    TestData.forSeeds(8) { s =>
      val pts = TestData.uniform(200, 3, s)
      val k = 5
      val eps = 0.5
      val tr = GMM.coreset(pts, CoresetSpec.Precision(eps, k), 0L)
      assert(tr.size >= k)
      val rK = tr.radiusAfter(k - 1)
      val rTau = tr.radiusAfter(tr.size - 1)
      assert(rTau <= (eps / 2) * rK + 1e-12 || tr.size == pts.length)
    }
  }

  test("coresetByEpsilon with smaller eps yields a larger coreset") {
    val pts = TestData.uniform(500, 3, 6L)
    val big = GMM.coreset(pts, CoresetSpec.Precision(0.2, 5), 0L).size
    val small = GMM.coreset(pts, CoresetSpec.Precision(0.9, 5), 0L).size
    assert(big >= small)
  }

  test("coresetByEpsilon proxy distance bound (Lemma 2 style)") {
    // d(s, coreset) <= eps * r*_k(S) needs r(T^k) <= 2 r*_k; on the full set
    // this holds, so check d(s,T) <= eps * 2 * r*_k proxy via the trace radii.
    val pts = TestData.uniform(300, 2, 8L)
    val eps = 0.4
    val tr = GMM.coreset(pts, CoresetSpec.Precision(eps, 4), 0L)
    val rCore = Points.radiusWithOutliers(pts, tr.centers, 0)
    assert(rCore <= eps * tr.radiusAfter(3) + 1e-12)
  }

  test("coreset specs reject tau < 1, kBase < 1 and eps outside (0,1] where they are made") {
    for (tau <- Seq(0, -3)) intercept[IllegalArgumentException](CoresetSpec.FixedSize(tau))
    for ((eps, kBase) <- Seq((0.5, 0), (0.5, -1), (0.0, 4), (1.5, 4), (Double.NaN, 4)))
      intercept[IllegalArgumentException](CoresetSpec.Precision(eps, kBase))
    val pts = TestData.uniform(50, 2, 1L)
    // Without the check, the forwarder would return one center for tau <= 0.
    for (tau <- Seq(0, -1)) intercept[IllegalArgumentException](GMM.coresetBySize(pts, tau, 3L))
    assert(GMM.coreset(pts, CoresetSpec.FixedSize(1), 3L).size == 1)
    assert(GMM.coreset(pts, CoresetSpec.Precision(1.0, 1), 3L).size >= 1)
  }

  test("runWhile on empty input throws") {
    intercept[IllegalArgumentException](GMM.coreset(Array.empty[Array[Double]], CoresetSpec.FixedSize(3), 0L))
  }

  test("NaN coordinate rejected (it would be re-selected for every slot)") {
    val pts = TestData.uniform(20, 2, 5L) :+ Array(1.0, Double.NaN)
    intercept[IllegalArgumentException](GMM.coreset(pts, CoresetSpec.FixedSize(10), 0L))
  }

  test("infinite coordinates rejected") {
    for (bad <- Seq(Double.PositiveInfinity, Double.NegativeInfinity)) {
      val pts = TestData.uniform(20, 2, 5L) :+ Array(bad, 0.0)
      intercept[IllegalArgumentException](GMM.coreset(pts, CoresetSpec.FixedSize(3), 0L))
    }
  }

  test("mixed dimensions rejected") {
    for (odd <- Seq(Array(1.0), Array(1.0, 2.0, 3.0))) {
      val pts = TestData.uniform(20, 2, 5L) :+ odd
      intercept[IllegalArgumentException](GMM.coreset(pts, CoresetSpec.FixedSize(3), 0L))
    }
  }

  test("firstIdx changes the traversal but not the 2-approx guarantee") {
    val pts = TestData.uniform(15, 2, 12L)
    val opt = ExactKCenter.optimalRadiusWithOutliers(pts, 3, 0)
    // Seeds -1 and 15 start where 14 and 0 do.
    for (seed <- -1L to 15L) {
      val tr = GMM.coreset(pts, CoresetSpec.FixedSize(3), seed)
      assert(tr.centerIdx(0) == math.floorMod(seed, 15L), s"seed=$seed")
      assert(Points.radiusWithOutliers(pts, tr.centers, 0) <= 2 * opt + 1e-9, s"seed=$seed")
    }
  }

  test("weigh conserves total weight = |S|") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(77, 3, s)
      val core = GMM.coreset(pts, CoresetSpec.FixedSize(9), 0L).centers
      val w = GMM.weigh(pts, core)
      assert(w.map(_.weight).sum == 77L)
      assert(w.forall(_.weight >= 1L)) // each coreset point is its own proxy
    }
  }

  test("duplicate inputs: traversal stops at radius 0, no zero-weight centers") {
    val distinct = TestData.uniform(5, 2, 3L)
    val pts = Array.tabulate(500)(i => distinct(i % 5))
    val tr = GMM.coreset(pts, CoresetSpec.FixedSize(20), 0L)
    assert(tr.size == 5 && tr.radiusAfter.last == 0.0)
    val w = GMM.weigh(pts, tr.centers)
    assert(w.map(_.vec.toSeq).toSet == distinct.map(_.toSeq).toSet)
    assert(w.forall(_.weight == 100L))
  }

  /** GMM and weighting on the plain kernel: every distance in full, strict
    * `<`, first index on ties.
    */
  private def plainGMM(pts: Array[Array[Double]], tau: Int, first: Int): (Seq[Int], Seq[Double], Seq[Long]) = {
    val sqd = Array.fill(pts.length)(Double.MaxValue)
    val idx = scala.collection.mutable.ArrayBuffer[Int]()
    val rad = scala.collection.mutable.ArrayBuffer[Double]()
    var next = first
    var r = 1.0
    while (idx.length < math.min(tau, pts.length) && r > 0) {
      idx += next
      for (i <- pts.indices) sqd(i) = math.min(sqd(i), Points.sqDist(pts(i), pts(next)))
      next = sqd.indices.maxBy(sqd) // first index on ties
      r = math.sqrt(sqd(next))
      rad += r
    }
    val w = new Array[Long](idx.length)
    for (p <- pts) w(idx.indices.minBy(j => Points.sqDist(p, pts(idx(j))))) += 1L
    (idx.toSeq, rad.toSeq, w.toSeq)
  }

  test("trace and weights equal the plain-kernel GMM on outlier- and duplicate-heavy inputs") {
    TestData.forSeeds(4) { s =>
      for (dim <- Seq(3, 7, 50)) {
        val (blobs, _) = TestData.blobs(4, 60, dim, s, sep = 50.0, std = 1.0)
        val outliers = TestData.uniform(40, dim, s + 1, box = 1e4)
        val distinct = TestData.uniform(7, dim, s + 2)
        val inputs = Seq("outliers" -> (blobs ++ outliers),
                         "duplicates" -> (Array.tabulate(300)(i => distinct(i % 7)) ++ blobs.take(20)))
        for ((name, pts) <- inputs; tau <- Seq(10, 60)) {
          val first = math.floorMod(s, pts.length.toLong).toInt
          val tr = GMM.coreset(pts, CoresetSpec.FixedSize(tau), first)
          val w = GMM.weigh(pts, tr.centers).map(_.weight).toSeq
          val clue = s"seed=$s dim=$dim $name tau=$tau"
          assert((tr.centerIdx.toSeq, tr.radiusAfter.toSeq, w) == plainGMM(pts, tau, first), clue)
        }
      }
    }
  }

  test("the pruned kernel's trace and weights equal the plain-kernel GMM + weigh on round-1 partitions") {
    // Partitions of the benchmark's inputs (higgsLike 7-d, wikiLike 50-d),
    // one of them outlier-heavy, at the coreset sizes of the MapReduce runs.
    val before = GMM.prunedUpdates.get
    for (spec <- Seq(Datasets.higgsLike, Datasets.wikiLike)) {
      val part = Datasets.localPoints(spec, 1250, 3L)
      val (crowded, _) = Datasets.withOutliers(part.take(1050), 200, 3L)
      for ((name, pts) <- Seq("plain" -> part, "outliers" -> crowded); tau <- Seq(95, 220, 760)) {
        val first = math.floorMod(3L + tau, pts.length.toLong).toInt
        val tr = GMM.coreset(pts, CoresetSpec.FixedSize(tau), first)
        val clue = s"${spec.name} $name tau=$tau"
        assert((tr.centerIdx.toSeq, tr.radiusAfter.toSeq, tr.weights.toSeq) == plainGMM(pts, tau, first), clue)
        assert(tr.weighted.map(_.weight).toSeq == GMM.weigh(pts, tr.centers).map(_.weight).toSeq, clue)
        assert(tr.weights.sum == pts.length.toLong, clue)
      }
    }
    assert(GMM.prunedUpdates.get > before, "the triangle rule never skipped an update")
  }

  test("the pruned kernel equals the plain one on duplicate-heavy inputs and on a lattice with exact ties") {
    val lattice = Array.tabulate(900)(i => Array((i % 30).toDouble, (i / 30).toDouble))
    for (tau <- Seq(10, 95, 220); first <- Seq(0, 437)) {
      val tr = GMM.coreset(lattice, CoresetSpec.FixedSize(tau), first)
      assert((tr.centerIdx.toSeq, tr.radiusAfter.toSeq, tr.weights.toSeq) == plainGMM(lattice, tau, first),
             s"lattice tau=$tau first=$first")
    }
    TestData.forSeeds(4) { s =>
      val distinct = Datasets.localPoints(Datasets.higgsLike, 40, s)
      val pts = Array.tabulate(2000)(i => distinct((i * 7) % 40)) ++ Datasets.localPoints(Datasets.higgsLike, 200, s + 1)
      for (tau <- Seq(95, 220, 760)) {
        val first = math.floorMod(s, pts.length.toLong).toInt
        val tr = GMM.coreset(pts, CoresetSpec.FixedSize(tau), first)
        assert((tr.centerIdx.toSeq, tr.radiusAfter.toSeq, tr.weights.toSeq) == plainGMM(pts, tau, first),
               s"seed=$s tau=$tau")
        assert(tr.weights.sum == pts.length.toLong)
      }
    }
  }

  test("the triangle rule stays off where squared distances are below 2^-900") {
    // At coordinate scales of 1e-150 and below, squared distances are tiny,
    // subnormal (1e-160) or 0 (1e-170), and their rounding could exceed the
    // rule's margin.
    val (blobs, _) = TestData.blobs(8, 40, 7, 5L, sep = 30.0, std = 1.5)
    for (scale <- Seq(1e-150, 1e-160, 1e-170)) {
      val pts = blobs.map(_.map(_ * scale))
      val before = GMM.prunedUpdates.get
      for (tau <- Seq(10, 95)) {
        val tr = GMM.coreset(pts, CoresetSpec.FixedSize(tau), 3L)
        assert((tr.centerIdx.toSeq, tr.radiusAfter.toSeq, tr.weights.toSeq) == plainGMM(pts, tau, 3),
               s"scale=$scale tau=$tau")
        assert(tr.weights.sum == pts.length.toLong)
      }
      assert(GMM.prunedUpdates.get == before, s"scale=$scale")
    }
  }

  test("weigh assigns each point to its closest coreset point") {
    val pts = Array(Array(0.0), Array(0.1), Array(10.0), Array(10.2), Array(10.3))
    val core = Array(Array(0.0), Array(10.0))
    val w = GMM.weigh(pts, core)
    assert(w.map(_.weight).toSeq == Seq(2L, 3L))
  }
}
