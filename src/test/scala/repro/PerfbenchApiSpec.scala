package repro

import repro.core.{ExactKCenter, GMM, OutliersCluster, Points, RadiusSearch, SeqCoresetOutliers, WeightedPoint}
import repro.data.{DataPoint, Datasets}
import repro.eval.Evaluate
import repro.mr.{MROutliers, Partitioning}
import repro.streaming.{CoresetOutliers, DoublingCoreset}

/** Compiles and runs every root name the benchmark build (`perfbench/`)
  * calls, with its argument shapes, on tiny inputs. That build is not
  * compiled by `sbt test`, so a rename of one of these names fails here
  * first. The list is the one in ROADMAP.md, "Open items".
  */
class PerfbenchApiSpec extends SparkSpec {

  private val (k, z, ell, hatEps, seed) = (2, 3, 2, 0.1, 5L)
  private val spec: Datasets.Spec = Datasets.higgsLike
  private val mixture = Datasets.mixture(spec, 1234L)

  test("MapReduce names: drivers, result fields, partitionings, round-1 building blocks") {
    import spark.implicits._
    val n = 200L
    // Locals, so that the Spark closures do not capture the suite.
    val (specL, mix, seedL, tauL) = (spec, mixture, seed, k + z)
    val base = spark.range(0, n, 1, 2).map(id =>
      DataPoint(id, Datasets.genPoint(specL, mix, seedL, id, n), isOutlier = false))
    val ds = Datasets.withOutliersDS(spark, base, z, seed).cache()
    val det: MROutliers.Result =
      MROutliers.runDeterministic(ds, k, z, ell, 1, Partitioning.AdversarialOutliers, hatEps, seed)
    val rnd: MROutliers.Result = MROutliers.runRandomized(ds, k, z, ell, 1, hatEps, seed)
    for (r <- Seq(det, rnd)) {
      assert(r.centers.length <= k && r.searchRadius >= 0 && r.coresetUnionSize > 0)
      assert(r.round1Millis >= 0 && r.round2Millis >= 0)
    }
    val partitioning: Partitioning = Partitioning.Random
    val sizes = partitioning(ds, ell, seed).mapPartitions(it => Iterator.single(it.size.toLong)).collect()
    assert(sizes.sum == n + z)
    val union = Partitioning.AdversarialOutliers(ds, ell, seed).mapPartitions { it =>
      val pts = it.map(_.vec).toArray
      if (pts.isEmpty) Iterator.empty
      else {
        val trace = GMM.coresetBySize(pts, tauL, math.floorMod(seedL, pts.length.toLong).toInt)
        GMM.weigh(pts, trace.centers).iterator
      }
    }.collect()
    val sr = RadiusSearch.search(union, k, z.toLong, hatEps, seed)
    assert(union.length == det.coresetUnionSize && sr.radius == det.searchRadius && sr.probes > 0)
    assert(OutliersCluster.run(union, k, sr.radius, hatEps).uncoveredWeight <= z)
    assert(Evaluate.radiusWithOutliersDS(ds, det.centers, z) >= 0)
    ds.unpersist()
  }

  test("streaming names: CoresetOutliers and DoublingCoreset") {
    val sample = Array.tabulate(300)(i => Datasets.genPoint(spec, mixture, seed, i.toLong, 300L))
    val (stream, _) = Datasets.withOutliers(sample, z, seed)
    val algo = new CoresetOutliers(k, z, 2, hatEps, seed)
    stream.foreach(algo.update)
    val sol = algo.result()
    assert(sol.centers.length <= k && sol.searchRadius >= 0 && sol.coresetSize > 0)
    val coreset = new DoublingCoreset(2 * (k + z))
    stream.foreach(coreset.update)
    val t: Array[WeightedPoint] = coreset.result()
    assert(coreset.phi > 0 && t.map(_.weight).sum == stream.length)
    val sr = RadiusSearch.search(t, k, z.toLong, hatEps, seed)
    assert(sr.radius == sol.searchRadius)
    assert(Evaluate.radiusWithOutliersLocal(stream, sr.clustering.centers, z) >= 0)
  }

  test("core, data and eval names: sequential solve, exact optimum, distances, datasets") {
    val small = Datasets.higgsLike.copy(noiseFrac = 0.0)
    val (points, _) = Datasets.withOutliers(Datasets.localPoints(small, 40, seed), z, seed)
    val solve = SeqCoresetOutliers.runFixedSize(points, k, z, k + z, hatEps, seed)
    val objective = Points.radiusWithOutliers(points.toSeq, solve.centers, z)
    assert(solve.centers.length <= k && objective >= 0)
    val tiny = points.take(7)
    assert(ExactKCenter.optimalRadiusWithOutliers(tiny, k, 1) >= 0)
    val macros = Datasets.mixture(small, seed).superCenters
    assert(Points.dist(macros(0), macros(1)) == math.sqrt(Points.sqDist(macros(0), macros(1))))
    assert(GMM.coresetBySize(points, 5, 0).radiusAfter.length == 5)
    assert(Seq(Datasets.higgsLike, Datasets.wikiLike).map(_.dim) == Seq(7, 50))
  }
}
