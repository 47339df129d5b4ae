package repro.mr

import org.apache.spark.rdd.RDD
import repro.data.{DataPoint, Datasets}
import repro.{SparkSpec, TestData}

class PartitioningSpec extends SparkSpec {

  private def toDS(n: Int, outlierFrom: Int = Int.MaxValue) = {
    import spark.implicits._
    val pts = TestData.uniform(n, 2, 1L)
    spark.createDataset(pts.toSeq.zipWithIndex.map { case (v, i) =>
      DataPoint(i.toLong, v, i >= outlierFrom)
    })
  }

  test("Arbitrary produces the requested number of partitions") {
    val parts = Partitioning.Arbitrary(toDS(200), 8, 1L)
    assert(parts.rdd.getNumPartitions == 8)
  }

  test("Arbitrary spreads rows roughly evenly") {
    val sizes = Partitioning.Arbitrary(toDS(400), 4, 1L)
      .rdd.mapPartitions(it => Iterator(it.size)).collect()
    assert(sizes.sum == 400)
    assert(sizes.forall(s => s > 50 && s < 150), sizes.mkString(","))
  }

  test("Random produces the requested number of partitions and loses nothing") {
    val parts = Partitioning.Random(toDS(300), 6, 2L)
    assert(parts.rdd.getNumPartitions == 6)
    assert(parts.count() == 300)
  }

  test("Random assignment is roughly balanced") {
    val sizes = Partitioning.Random(toDS(4000), 4, 3L)
      .rdd.mapPartitions(it => Iterator(it.size)).collect()
    assert(sizes.sum == 4000)
    assert(sizes.forall(s => s > 600 && s < 1400), sizes.mkString(","))
  }

  test("AdversarialOutliers puts every outlier in one partition") {
    val ds = toDS(200, outlierFrom = 180) // 20 outliers
    val parts = Partitioning.AdversarialOutliers(ds, 4, 4L)
    val outlierParts = parts.rdd
      .mapPartitionsWithIndex((i, it) => Iterator(i -> it.count(_.isOutlier)))
      .collect().filter(_._2 > 0)
    assert(outlierParts.length == 1, outlierParts.mkString(","))
    assert(outlierParts.head._2 == 20)
    assert(parts.count() == 200)
  }

  test("AdversarialOutliers still spreads non-outliers across partitions") {
    val ds = toDS(400, outlierFrom = 390)
    val parts = Partitioning.AdversarialOutliers(ds, 4, 5L)
    val nonEmpty = parts.rdd.mapPartitions(it => Iterator(it.size)).collect().count(_ > 0)
    assert(nonEmpty >= 3)
  }

  private val partitionings = Seq(Partitioning.Arbitrary, Partitioning.Random, Partitioning.AdversarialOutliers)

  /** The points of each subset, in order. */
  private def subsets(rdd: RDD[DataPoint]) =
    rdd.glom().collect().toSeq.map(_.toSeq.map(p => (p.id, p.vec.toSeq, p.isOutlier)))

  /** 300 points with 30 outliers in `slices` source partitions, in id order. */
  private def sliced(slices: Int) = {
    import spark.implicits._
    val pts = TestData.uniform(300, 2, 9L).toSeq.zipWithIndex.map { case (v, i) =>
      DataPoint(i.toLong, v, i % 10 == 3)
    }
    spark.createDataset(spark.sparkContext.parallelize(pts, slices))
  }

  test("routed equals the uncoalesced partitionBy of the keyed input, subset by subset, in order") {
    val cores = spark.sparkContext.defaultParallelism
    // Fewer, as many, and more source partitions than map tasks.
    for (slices <- Seq(1, math.max(1, cores / 2), cores, 3 * cores + 1).distinct;
         partitioning <- partitionings; ell <- Seq(1, 3, 8)) {
      val ds = sliced(slices)
      val reference = partitioning.keyed(ds, ell, 6L)
        .partitionBy(new Partitioning.IdentityPartitioner(ell)).values
      val routed = partitioning.routed(ds, ell, 6L)
      assert(routed.getNumPartitions == ell)
      assert(subsets(routed) == subsets(reference), s"$partitioning slices=$slices ell=$ell")
    }
  }

  test("RangeCoalescer groups are consecutive, cover every parent once and number min(max, n)") {
    for (n <- Seq(0, 1, 3, 7, 20); max <- Seq(1, 2, 4, 8, 32)) {
      val parent = if (n == 0) spark.sparkContext.emptyRDD[Int] else spark.sparkContext.parallelize(1 to 40, n)
      val groups = Partitioning.RangeCoalescer.coalesce(max, parent)
      val clue = s"n=$n max=$max"
      assert(groups.length == math.min(max, n), clue)
      assert(groups.toSeq.flatMap(_.partitions.map(_.index)) == (0 until n), clue)
      assert(groups.forall(_.numPartitions > 0), clue)
      val sizes = groups.map(_.numPartitions)
      if (n > 0) assert(sizes.max - sizes.min <= 1, s"$clue ${sizes.mkString(",")}")
    }
  }

  test("the routed subsets do not depend on the coalesce width") {
    // 16 generated partitions plus 4 from an outlier union, as in the benchmark.
    val base = Datasets.points(spark, Datasets.higgsLike, 2000L, 4L, numPartitions = 16)
    val ds = Datasets.withOutliersDS(spark, base, 40, 4L).cache()
    for (partitioning <- partitionings; ell <- Seq(1, 3, 8)) {
      val keyed = partitioning.keyed(ds, ell, 2L)
      val reference = subsets(keyed.partitionBy(new Partitioning.IdentityPartitioner(ell)).values)
      for (width <- Seq(1, 2, 3, 4, 8, 64)) {
        val coalesced = keyed.coalesce(width, shuffle = false, Some(Partitioning.RangeCoalescer))
        assert(coalesced.getNumPartitions == math.min(width, keyed.getNumPartitions))
        val routed = coalesced.partitionBy(new Partitioning.IdentityPartitioner(ell)).values
        assert(subsets(routed) == reference, s"$partitioning ell=$ell width=$width")
      }
    }
    ds.unpersist()
  }
}
