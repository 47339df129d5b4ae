package repro.mr

import repro.core.{CoresetSpec, ExactKCenter, GMM, Points, RadiusSearch, SeqCoresetOutliers}
import repro.data.{DataPoint, Datasets}
import repro.eval.Evaluate
import repro.{SparkSpec, TestData}

class MROutliersSpec extends SparkSpec {

  private def toDS(pts: Array[Array[Double]], flags: Array[Boolean] = Array.empty) = {
    import spark.implicits._
    spark.createDataset(pts.toSeq.zipWithIndex.map { case (v, i) =>
      DataPoint(i.toLong, v, if (flags.nonEmpty) flags(i) else false)
    })
  }

  test("returns at most k centers") {
    val ds = toDS(TestData.uniform(400, 3, 1L))
    val res = MROutliers.runDeterministic(ds, 4, 10, ell = 4, mu = 1)
    assert(res.centers.length <= 4)
  }

  test("deterministic coreset union is ell * mu * (k+z) on large partitions") {
    val ds = toDS(TestData.uniform(2000, 2, 2L))
    val res = MROutliers.runDeterministic(ds, 3, 7, ell = 4, mu = 2)
    assert(res.coresetSize == 4 * 2 * 10)
  }

  test("randomized coreset union uses tau = mu*(k + ceil(6z/ell))") {
    val ds = toDS(TestData.uniform(2000, 2, 3L))
    val res = MROutliers.runRandomized(ds, 3, 8, ell = 4, mu = 1)
    assert(res.coresetSize == 4 * (3 + 12)) // ceil(48/4)=12
  }

  test("weights of the union coreset sum to |S|") {
    val pts = TestData.uniform(900, 3, 4L)
    // Inspect round 1 directly through the coreset builder.
    val w = GMM.coreset(pts, CoresetSpec.FixedSize(30), 5L).weighted
    assert(w.map(_.weight).sum == 900L)
  }

  test("planted blobs + planted outliers: radius at cluster scale (deterministic)") {
    val (clean, _) = TestData.blobs(3, 100, 2, 5L, sep = 600.0, std = 1.0)
    val (pts, flags) = Datasets.withOutliers(clean, 5, 5L)
    val ds = toDS(pts, flags).cache()
    val res = MROutliers.runDeterministic(ds, 3, 5, ell = 4, mu = 4)
    val r = Evaluate.radiusWithOutliersDS(ds, res.centers, 5)
    ds.unpersist()
    assert(r < 50.0, s"radius=$r")
  }

  test("planted blobs + planted outliers: radius at cluster scale (randomized)") {
    val (clean, _) = TestData.blobs(3, 100, 2, 6L, sep = 600.0, std = 1.0)
    val (pts, flags) = Datasets.withOutliers(clean, 5, 6L)
    val ds = toDS(pts, flags).cache()
    val res = MROutliers.runRandomized(ds, 3, 5, ell = 4, mu = 4)
    val r = Evaluate.radiusWithOutliersDS(ds, res.centers, 5)
    ds.unpersist()
    assert(r < 50.0, s"radius=$r")
  }

  test("adversarial partitioning with mu=1 degrades, larger mu recovers (Fig. 4 story)") {
    val (clean, _) = TestData.blobs(4, 150, 2, 7L, sep = 300.0, std = 2.0)
    val (pts, flags) = Datasets.withOutliers(clean, 20, 7L)
    val ds = toDS(pts, flags).cache()
    def radiusFor(mu: Int): Double = {
      val rs = TestData.forSeedsCollect(3) { s =>
        val res = MROutliers.runDeterministic(ds, 4, 20, ell = 4, mu = mu,
          partitioning = Partitioning.AdversarialOutliers, seed = s)
        Evaluate.radiusWithOutliersDS(ds, res.centers, 20)
      }
      rs.sum / rs.size
    }
    val r1 = radiusFor(1)
    val r8 = radiusFor(8)
    ds.unpersist()
    assert(r8 <= r1 + 1e-9, s"mu=1 -> $r1, mu=8 -> $r8")
  }

  test("approximation vs exact optimum on a tiny instance (3+eps shape)") {
    TestData.forSeeds(4) { s =>
      val pts = TestData.uniform(14, 2, s)
      val ds = toDS(pts)
      val (k, z) = (2, 2)
      val res = MROutliers.runDeterministic(ds, k, z, ell = 2, mu = 2, seed = s)
      val r = Points.radiusWithOutliers(pts, res.centers, z)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      // Proxy slack on top of (3+4e)(1+d): generous factor-6 guard.
      assert(r <= 6.0 * opt + 1e-9, s"seed=$s r=$r opt=$opt")
    }
  }

  test("reports the search's probes and a certified lower bound on r*_{k,z}") {
    TestData.forSeeds(4) { s =>
      val pts = TestData.uniform(14, 2, s)
      val res = MROutliers.runDeterministic(toDS(pts), 2, 2, ell = 2, mu = 2, seed = s)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, 2, 2)
      assert(res.probes >= 1 && res.optimumLowerBound > 0 && res.optimumLowerBound <= opt + 1e-12,
             s"seed=$s probes=${res.probes} bound=${res.optimumLowerBound} opt=$opt")
    }
  }

  test("searchRadius leaves uncovered weight <= z on the coreset") {
    val pts = TestData.uniform(500, 3, 8L)
    val ds = toDS(pts)
    val res = MROutliers.runDeterministic(ds, 3, 12, ell = 2, mu = 2)
    assert(res.searchRadius >= 0 && res.centers.nonEmpty)
  }

  test("radiusWithOutliers helper agrees with local computation") {
    val pts = TestData.uniform(300, 3, 9L)
    val ds = toDS(pts)
    val centers = pts.take(3)
    for (z <- Seq(0, 5, 20)) {
      val viaSpark = Evaluate.radiusWithOutliersDS(ds, centers, z)
      val local = Points.radiusWithOutliers(pts, centers, z)
      assert(math.abs(viaSpark - local) < 1e-9, s"z=$z")
    }
  }

  test("ell = 1 matches the sequential coreset algorithm's quality") {
    val (clean, _) = TestData.blobs(3, 80, 2, 10L, sep = 500.0, std = 1.0)
    val (pts, flags) = Datasets.withOutliers(clean, 4, 10L)
    val ds = toDS(pts, flags)
    val res = MROutliers.runDeterministic(ds, 3, 4, ell = 1, mu = 4, seed = 3L)
    val rMr = Points.radiusWithOutliers(pts, res.centers, 4)
    assert(rMr < 50.0)
  }

  private def bits(v: Array[Double]): Seq[Long] = v.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private val partitionings = Seq(Partitioning.Arbitrary, Partitioning.Random, Partitioning.AdversarialOutliers)

  test("round-1 union equals Partitioning.apply + GMM.coresetBySize + GMM.weigh, in order, bit for bit") {
    import spark.implicits._
    val base = Datasets.points(spark, Datasets.higgsLike, 3000L, 11L, numPartitions = 5)
    val ds = Datasets.withOutliersDS(spark, base, 60, 11L).cache()
    val (k, z, ell, tau) = (5, 60, 4, 80)
    for (partitioning <- partitionings; seed <- Seq(3L, 8L)) {
      val composed = partitioning(ds, ell, seed).mapPartitions { it =>
        val pts = it.map(_.vec).toArray
        if (pts.isEmpty) Iterator.empty
        else {
          val trace = GMM.coresetBySize(pts, tau, math.floorMod(seed, pts.length.toLong).toInt)
          GMM.weigh(pts, trace.centers).iterator
        }
      }.collect()
      val union = Round1.union(ds, ell, CoresetSpec.FixedSize(tau), partitioning, seed)
      val clue = s"$partitioning seed=$seed"
      assert(union.map(p => (bits(p.vec), p.weight)).toSeq == composed.map(p => (bits(p.vec), p.weight)).toSeq, clue)
      // The composed layers reproduce the driver's |T| and search radius.
      val res = MROutliers.run(ds, k, z, ell, CoresetSpec.FixedSize(tau), partitioning, seed = seed)
      val sr = RadiusSearch.search(composed, k, z.toLong, 0.05, seed)
      assert(res.coresetSize == composed.length && res.searchRadius == sr.radius, clue)
    }
    ds.unpersist()
  }

  test("ell = 1 equals SeqCoresetOutliers bit for bit (centers, search radius, coreset size)") {
    val (clean, _) = TestData.blobs(4, 60, 3, 12L, sep = 200.0, std = 2.0)
    val (pts, flags) = Datasets.withOutliers(clean, 12, 12L)
    val ds = toDS(pts, flags).cache()
    val cases = Seq((3, 4, CoresetSpec.FixedSize(7)), (3, 4, CoresetSpec.FixedSize(28)),
                    (5, 10, CoresetSpec.FixedSize(30)), (3, 4, CoresetSpec.Precision(0.5, 7)))
    for (partitioning <- partitionings; (k, z, spec) <- cases) {
      TestData.forSeeds(6) { s =>
        val mr = MROutliers.run(ds, k, z, 1, spec, partitioning, seed = s)
        val seq = SeqCoresetOutliers.run(pts, k, z, spec, seed = s)
        val clue = s"$partitioning k=$k z=$z $spec seed=$s"
        assert(mr.centers.map(bits).toSeq == seq.centers.map(bits).toSeq, clue)
        assert(mr.searchRadius == seq.searchRadius && mr.coresetSize == seq.coresetSize, clue)
      }
    }
    ds.unpersist()
  }

  test("rejects k < 1, z < 0 and ell < 1 on the driver, naming the parameter, before any Spark job") {
    val ds = toDS(TestData.uniform(50, 2, 1L))
    val bad = Seq((0, 2, 2, "k"), (3, -1, 2, "z"), (3, 2, 0, "ell"), (3, 2, -1, "ell"))
    val drivers = Seq[(String, (Int, Int, Int) => Any)](
      "run" -> ((k, z, ell) => MROutliers.run(ds, k, z, ell, CoresetSpec.FixedSize(10), Partitioning.Arbitrary)),
      "runDeterministic" -> ((k, z, ell) => MROutliers.runDeterministic(ds, k, z, ell, mu = 1)),
      "runRandomized" -> ((k, z, ell) => MROutliers.runRandomized(ds, k, z, ell, mu = 1)))
    for ((k, z, ell, name) <- bad; (driver, f) <- drivers) {
      val clue = s"$driver k=$k z=$z ell=$ell"
      val jobs = jobsStartedBy {
        val e = intercept[IllegalArgumentException](f(k, z, ell))
        assert(e.getMessage.contains(s"$name="), s"$clue: ${e.getMessage}")
      }
      assert(jobs.isEmpty, s"$clue started jobs ${jobs.mkString(",")}")
    }
    assert(jobsStartedBy(MROutliers.runRandomized(ds, 3, 2, 2, mu = 1)).nonEmpty) // the probe sees jobs
  }

  test("an empty input fails with the driver's own error, with or without source partitions") {
    import spark.implicits._
    val noPartitions = spark.emptyDataset[DataPoint]
    val emptyPartitions = toDS(TestData.uniform(40, 2, 1L)).filter(_.id < 0)
    for (ds <- Seq(noPartitions, spark.createDataset(spark.sparkContext.emptyRDD[DataPoint]), emptyPartitions)) {
      val e = intercept[IllegalArgumentException](MROutliers.run(ds, 3, 2, ell = 4, CoresetSpec.FixedSize(10), Partitioning.Random))
      assert(e.getMessage.contains("empty input dataset"), e.getMessage)
    }
  }
}
