package repro.data

import repro.core.Points
import repro.{SparkSpec, TestData}

class DatasetsSpec extends SparkSpec {

  test("specs have the paper's dimensionalities and ks") {
    assert(Datasets.higgsLike.dim == 7 && Datasets.higgsLike.k == 50)
    assert(Datasets.powerLike.dim == 7 && Datasets.powerLike.k == 100)
    assert(Datasets.wikiLike.dim == 50 && Datasets.wikiLike.k == 60)
  }

  test("localPoints is deterministic in (spec, n, seed)") {
    val a = Datasets.localPoints(Datasets.higgsLike, 100, 5L)
    val b = Datasets.localPoints(Datasets.higgsLike, 100, 5L)
    assert(a.zip(b).forall { case (x, y) => x.sameElements(y) })
    val c = Datasets.localPoints(Datasets.higgsLike, 100, 6L)
    assert(!a.zip(c).forall { case (x, y) => x.sameElements(y) })
  }

  test("localPoints have the spec dimension") {
    for (spec <- Datasets.all)
      assert(Datasets.localPoints(spec, 20, 1L).forall(_.length == spec.dim))
  }

  test("points cluster around the mixture centers (modulo background noise)") {
    val spec = Datasets.higgsLike
    val pts = Datasets.localPoints(spec, 500, 2L)
    val centers = Datasets.mixture(spec, 2L).centers
    // Non-noise points sit within a few sigmas of some center; allow the
    // noiseFrac background plus Gaussian tails.
    val lim = spec.sigmaMax * 5 * math.sqrt(spec.dim.toDouble)
    val near = pts.count(p => math.sqrt(Points.sqDistToSet(p, centers)) < lim)
    assert(near >= (0.9 * pts.length).toInt, s"only $near/${pts.length} near centers")
  }

  test("mixture is multi-scale: sigmas span at least a factor 5") {
    for (spec <- Datasets.all) {
      val mix = Datasets.mixture(spec, 3L)
      assert(mix.sigmas.max / mix.sigmas.min >= 5.0, spec.name)
      assert(mix.superCenters.length == spec.numSuper)
      assert(mix.centers.length == spec.numClusters)
    }
  }

  test("mixture is hierarchical: sub-clusters orbit their macro-cluster") {
    val spec = Datasets.higgsLike
    val mix = Datasets.mixture(spec, 3L)
    val perSuper = spec.numClusters / spec.numSuper
    // A sub-cluster is much closer to its own macro-center than macro-centers
    // are to each other on average.
    val orbit = mix.centers.zipWithIndex.map { case (c, ci) =>
      Points.dist(c, mix.superCenters(ci / perSuper))
    }
    val interSuper = (for (i <- mix.superCenters.indices; j <- (i + 1) until spec.numSuper)
      yield Points.dist(mix.superCenters(i), mix.superCenters(j)))
    assert(orbit.max < interSuper.sum / interSuper.size,
           s"orbit max ${orbit.max} vs mean inter-super ${interSuper.sum / interSuper.size}")
  }

  test("macro-clusters are contiguous id ranges (order correlation)") {
    val spec = Datasets.higgsLike
    val n = 3000
    val mix = Datasets.mixture(spec, 5L)
    val pts = Datasets.localPoints(spec, n, 5L)
    // Points from the first id-sixteenth sit near macro-cluster 0, points
    // from the last near the final macro-cluster.
    val firstNear = pts.take(n / spec.numSuper / 2)
      .count(p => Points.closestIndex(p, mix.superCenters) == 0)
    assert(firstNear > n / spec.numSuper / 4, s"firstNear=$firstNear")
  }

  test("cluster sizes are Zipf-skewed: first cluster draws more points than median") {
    val spec = Datasets.higgsLike
    val mix = Datasets.mixture(spec, 4L)
    val pts = Datasets.localPoints(spec, 5000, 4L)
    val counts = new Array[Int](spec.numClusters)
    pts.foreach { p =>
      val i = Points.closestIndex(p, mix.centers)
      counts(i) += 1
    }
    val sorted = counts.sorted.reverse
    assert(sorted.head > 10 * math.max(1, sorted(spec.numClusters / 2)),
           s"head=${sorted.head} median=${sorted(spec.numClusters / 2)}")
  }

  test("Spark points equal local points for matching (spec, n, seed)") {
    val spec = Datasets.powerLike
    val local = Datasets.localPoints(spec, 200, 3L)
    val viaSpark = Datasets.points(spark, spec, 200L, 3L).collect().sortBy(_.id)
    assert(viaSpark.length == 200)
    viaSpark.foreach { dp =>
      assert(dp.vec.sameElements(local(dp.id.toInt)), s"id=${dp.id}")
      assert(!dp.isOutlier)
    }
  }

  test("Spark points are partitioning-invariant") {
    val spec = Datasets.higgsLike
    val a = Datasets.points(spark, spec, 100L, 7L, numPartitions = 2).collect().sortBy(_.id)
    val b = Datasets.points(spark, spec, 100L, 7L, numPartitions = 13).collect().sortBy(_.id)
    a.zip(b).foreach { case (x, y) => assert(x.vec.sameElements(y.vec)) }
  }

  test("mebApprox contains every point within the returned radius") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(200, 4, s)
      val (c, r) = Datasets.mebApprox(pts)
      pts.foreach(p => assert(Points.dist(p, c) <= r + 1e-9))
    }
  }

  test("mebApprox radius within 2x of the true MEB radius") {
    TestData.forSeeds(5) { s =>
      // True MEB radius >= half the diameter; centroid ball <= diameter.
      val pts = TestData.uniform(100, 3, s)
      val (_, r) = Datasets.mebApprox(pts)
      val diam = (for (i <- pts.indices; j <- (i + 1) until pts.length)
        yield Points.dist(pts(i), pts(j))).max
      assert(r >= diam / 2 - 1e-9 || r <= diam)
      assert(r <= diam + 1e-9)
    }
  }

  test("mebApproxDS agrees with the local mebApprox") {
    import spark.implicits._
    val pts = TestData.uniform(300, 3, 9L)
    val ds = spark.createDataset(pts.toSeq.zipWithIndex.map { case (v, i) =>
      DataPoint(i.toLong, v, isOutlier = false)
    })
    val (cL, rL) = Datasets.mebApprox(pts)
    val (cD, rD) = Datasets.mebApproxDS(ds)
    assert(Points.dist(cL, cD) < 1e-6)
    assert(math.abs(rL - rD) < 1e-6)
  }

  test("makeOutliers places points at exactly 100*r from the center") {
    val c = Array(1.0, 2.0, 3.0)
    val outs = Datasets.makeOutliers(c, 2.0, 20, 4L)
    assert(outs.length == 20)
    outs.foreach(o => assert(math.abs(Points.dist(o, c) - 200.0) < 1e-6))
  }

  test("makeOutliers pairwise separation >= 10*r (the paper's verified property)") {
    val c = Array.fill(7)(0.0)
    val r = 3.0
    val outs = Datasets.makeOutliers(c, r, 50, 5L)
    for (i <- outs.indices; j <- (i + 1) until outs.length)
      assert(Points.dist(outs(i), outs(j)) >= 10 * r - 1e-9)
  }

  test("withOutliers marks exactly z outliers, each >= 99*r from every input point") {
    val pts = TestData.uniform(150, 3, 6L)
    val (_, rMeb) = Datasets.mebApprox(pts)
    val (all, flags) = Datasets.withOutliers(pts, 10, 6L)
    assert(all.length == 160 && flags.count(identity) == 10)
    val outs = all.zip(flags).collect { case (p, true) => p }
    for (o <- outs; p <- pts) assert(Points.dist(o, p) >= 99 * rMeb - 1e-6)
  }

  test("withOutliersDS unions flagged outliers with fresh ids") {
    val spec = Datasets.higgsLike
    val base = Datasets.points(spark, spec, 200L, 8L)
    val ds = Datasets.withOutliersDS(spark, base, 7, 8L)
    val all = ds.collect()
    assert(all.length == 207)
    assert(all.count(_.isOutlier) == 7)
    assert(all.map(_.id).distinct.length == 207)
  }

  test("inflateDS produces the requested size with the base dimension") {
    val base = TestData.uniform(50, 4, 2L)
    val ds = Datasets.inflateDS(spark, base, 340L, 3L)
    val all = ds.collect()
    assert(all.length == 340)
    assert(all.forall(_.vec.length == 4))
  }

  test("inflateDS noise respects the 10%-of-range scale") {
    val base = TestData.uniform(100, 3, 4L, box = 10.0)
    val lo = Array.tabulate(3)(j => base.map(_(j)).min)
    val hi = Array.tabulate(3)(j => base.map(_(j)).max)
    val all = Datasets.inflateDS(spark, base, 1000L, 5L).collect()
    // With sigma = range/10, excursions beyond range/2 outside the box are
    // ~5-sigma events; allow a wide margin but catch wrong scaling.
    all.foreach { p =>
      for (j <- 0 until 3) {
        assert(p.vec(j) > lo(j) - (hi(j) - lo(j)))
        assert(p.vec(j) < hi(j) + (hi(j) - lo(j)))
      }
    }
  }

  test("inflateDS is deterministic in seed") {
    val base = TestData.uniform(30, 2, 6L)
    val a = Datasets.inflateDS(spark, base, 100L, 9L).collect().sortBy(_.id)
    val b = Datasets.inflateDS(spark, base, 100L, 9L).collect().sortBy(_.id)
    a.zip(b).foreach { case (x, y) => assert(x.vec.sameElements(y.vec)) }
  }
}
