package repro.mr

import repro.core.{CoresetSpec, ExactKCenter, GMM, Points}
import repro.data.{DataPoint, Datasets}
import repro.eval.Evaluate
import repro.{SparkSpec, TestData}

class MRKCenterSpec extends SparkSpec {

  private def toDS(pts: Array[Array[Double]]) = {
    import spark.implicits._
    spark.createDataset(pts.toSeq.zipWithIndex.map { case (v, i) =>
      DataPoint(i.toLong, v, isOutlier = false)
    })
  }

  test("returns exactly k centers") {
    val ds = toDS(TestData.uniform(500, 3, 1L))
    val res = MRKCenter.run(ds, 6, ell = 4, CoresetSpec.FixedSize(12))
    assert(res.centers.length == 6)
  }

  test("coreset union size is ell * tau when partitions are large enough") {
    val ds = toDS(TestData.uniform(1000, 3, 2L))
    val res = MRKCenter.run(ds, 5, ell = 4, CoresetSpec.FixedSize(20))
    assert(res.coresetSize == 80)
  }

  test("coreset union caps at n when tau exceeds partition sizes") {
    val ds = toDS(TestData.uniform(40, 2, 3L))
    val res = MRKCenter.run(ds, 3, ell = 4, CoresetSpec.FixedSize(100))
    assert(res.coresetSize == 40)
  }

  test("(2+eps) shape: solution within 4x optimum on tiny instances") {
    // Theory: 2+eps for the eps-driven coreset; fixed-size tau >= k keeps the
    // coreset a superset of the GMM prefix, radius <= 2*(2+eps)* shape; use a
    // generous 4.5 bound that still catches broken pipelines.
    TestData.forSeeds(6) { s =>
      val pts = TestData.uniform(14, 2, s)
      val ds = toDS(pts)
      val res = MRKCenter.run(ds, 3, ell = 2, CoresetSpec.FixedSize(6), seed = s)
      val r = Points.radiusWithOutliers(pts, res.centers, 0)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, 3, 0)
      assert(r <= 4.5 * opt + 1e-9, s"seed=$s r=$r opt=$opt")
    }
  }

  test("certifies r_k(T)/2 <= r*_k(S) and reports r_k(T) as its radius, at ell = 1 and 3") {
    TestData.forSeeds(4) { s =>
      val pts = TestData.uniform(14, 2, s)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, 3, 0)
      for (ell <- Seq(1, 3)) {
        val res = MRKCenter.run(toDS(pts), 3, ell, CoresetSpec.FixedSize(4), seed = s)
        val clue = s"seed=$s ell=$ell bound=${res.optimumLowerBound} opt=$opt"
        assert(res.optimumLowerBound > 0 && res.optimumLowerBound <= opt + 1e-12, clue)
        assert(res.searchRadius == 2 * res.optimumLowerBound && res.probes == 0, clue)
        assert(res.searchRadius <= Points.radiusWithOutliers(pts, res.centers, 0) + 1e-12, clue)
      }
    }
  }

  test("rejects k < 1 and a coreset spec with tau < 1 with an IllegalArgumentException") {
    val ds = toDS(TestData.uniform(50, 2, 1L))
    intercept[IllegalArgumentException](MRKCenter.run(ds, 0, ell = 2, CoresetSpec.FixedSize(6)))
    for (tau <- Seq(0, -3))
      intercept[IllegalArgumentException](MRKCenter.run(ds, 3, ell = 2, CoresetSpec.FixedSize(tau)))
  }

  test("rejects k < 1 and ell < 1 on the driver, naming the parameter, before any Spark job") {
    val ds = toDS(TestData.uniform(50, 2, 1L))
    for ((k, ell, name) <- Seq((0, 2, "k"), (-1, 2, "k"), (3, 0, "ell"), (3, -1, "ell"))) {
      val jobs = jobsStartedBy {
        val e = intercept[IllegalArgumentException](MRKCenter.run(ds, k, ell, CoresetSpec.FixedSize(6)))
        assert(e.getMessage.contains(s"$name="), e.getMessage)
      }
      assert(jobs.isEmpty, s"k=$k ell=$ell started jobs ${jobs.mkString(",")}")
    }
    assert(jobsStartedBy(MRKCenter.run(ds, 3, 2, CoresetSpec.FixedSize(6))).nonEmpty) // the probe sees jobs
  }

  test("precision spec meets Theorem 1 bound on blobs") {
    val (pts, _) = TestData.blobs(4, 100, 3, 4L, sep = 800.0, std = 1.0)
    val ds = toDS(pts)
    val res = MRKCenter.run(ds, 4, ell = 4, CoresetSpec.Precision(0.5, 4))
    val r = Points.radiusWithOutliers(pts, res.centers, 0)
    assert(r < 20.0) // cluster scale; (2+eps) of ~sqrt(dim)*std
  }

  test("ell = 1 equals the sequential GMM-coreset pipeline") {
    val pts = TestData.uniform(300, 3, 5L)
    val ds = toDS(pts).coalesce(1)
    val res = MRKCenter.run(ds, 5, ell = 1, CoresetSpec.FixedSize(25), seed = 9L)
    // Sequential reference: same coreset spec on the whole input.
    val core = GMM.coreset(pts, CoresetSpec.FixedSize(25), 9L)
    // Partition order may differ after repartition(1); compare radii not centers.
    val seqCenters = GMM.coreset(core.centers, CoresetSpec.FixedSize(5), 9L).centers
    val rMr = Points.radiusWithOutliers(pts, res.centers, 0)
    val rSeq = Points.radiusWithOutliers(pts, seqCenters, 0)
    assert(math.abs(rMr - rSeq) <= math.max(rMr, rSeq) * 0.5 + 1e-9)
  }

  test("larger coresets do not hurt quality on clustered data (Fig. 2 trend)") {
    val (pts, _) = TestData.blobs(6, 80, 3, 6L, sep = 400.0, std = 3.0)
    val ds = toDS(pts).cache()
    val rads = Seq(1, 8).map { mu =>
      val rs = TestData.forSeedsCollect(3) { s =>
        val res = MRKCenter.run(ds, 6, ell = 4, CoresetSpec.FixedSize(mu * 6), seed = s)
        Points.radiusWithOutliers(pts, res.centers, 0)
      }
      rs.sum / rs.size
    }
    ds.unpersist()
    assert(rads(1) <= rads(0) * 1.2 + 1e-9, s"mu=1 avg ${rads(0)} vs mu=8 avg ${rads(1)}")
  }

  test("radius helper agrees with the local radius computation") {
    val pts = TestData.uniform(200, 3, 7L)
    val ds = toDS(pts)
    val centers = GMM.coreset(pts, CoresetSpec.FixedSize(4), 0L).centers
    val viaSpark = Evaluate.radiusWithOutliersDS(ds, centers, 0)
    val local = Points.radiusWithOutliers(pts, centers, 0)
    assert(math.abs(viaSpark - local) < 1e-9)
  }

  test("timings are recorded") {
    val ds = toDS(TestData.uniform(100, 2, 8L))
    val res = MRKCenter.run(ds, 3, ell = 2, CoresetSpec.FixedSize(6))
    assert(res.round1Millis >= 0 && res.round2Millis >= 0)
  }

  test("works against a synthetic dataset generated on Spark") {
    val ds = Datasets.points(spark, Datasets.higgsLike, 800L, 11L).cache()
    val res = MRKCenter.run(ds, Datasets.higgsLike.k, ell = 4,
                            CoresetSpec.FixedSize(Datasets.higgsLike.k))
    val r = Evaluate.radiusWithOutliersDS(ds, res.centers, 0)
    ds.unpersist()
    assert(res.centers.length == 50 && r > 0 && r.isFinite)
  }

  test("an empty input fails with the driver's own error, with or without source partitions") {
    import spark.implicits._
    val noPartitions = spark.emptyDataset[DataPoint]
    val emptyPartitions = toDS(TestData.uniform(40, 2, 1L)).filter(_.id < 0)
    for (ds <- Seq(noPartitions, spark.createDataset(spark.sparkContext.emptyRDD[DataPoint]), emptyPartitions)) {
      val e = intercept[IllegalArgumentException](MRKCenter.run(ds, 3, ell = 4, CoresetSpec.FixedSize(6)))
      assert(e.getMessage.contains("empty input dataset"), e.getMessage)
    }
  }
}
