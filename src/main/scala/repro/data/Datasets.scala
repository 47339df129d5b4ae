package repro.data

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Points

/** One input point as it flows through the Spark pipelines.
  *
  * `isOutlier` marks *injected* outliers (Sec. 5.2's procedure); algorithms
  * never read it — it exists only so benches can partition adversarially
  * ("placing all outliers in the same partition") and tests can check ground
  * truth.
  */
final case class DataPoint(id: Long, vec: Array[Double], isOutlier: Boolean)

/** Synthetic substitutes for the paper's datasets plus the paper's own data
  * preparation procedures (outlier injection, SMOTE-like inflation).
  *
  * Higgs (11M×7), Power (2M×7) and Wiki (5.5M×50, word2vec) are not available
  * offline; we generate hierarchical multi-scale mixtures with the same
  * dimensionality whose macro level is resolved by the outlier experiments'
  * k = 20 and whose sub level keeps rewarding the paper's k = 50..100 and
  * larger coresets. See DESIGN.md §3.
  *
  * All generators are deterministic in (spec, n, seed): point `id` is hashed
  * with SplitMix64 so the same ids yield the same vectors regardless of
  * Spark partitioning, and the local and Spark generators agree exactly.
  */
object Datasets {

  /** Shape of a synthetic dataset family. `k` is the paper's choice for the
    * corresponding real dataset (Sec. 5.1).
    *
    * Real datasets are not unions of k well-separated blobs — their k-center
    * radius keeps improving past k, which is exactly why larger coresets pay
    * off in the paper's figures. The generators therefore produce
    * hierarchical multi-scale mixtures: `numSuper` macro-clusters each
    * holding numClusters/numSuper sub-clusters with skewed sizes and
    * power-law scales (see [[mixture]]), plus a `noiseFrac` fraction of
    * uniform background stragglers.
    */
  final case class Spec(name: String, dim: Int, numSuper: Int, numClusters: Int, k: Int,
                        boxSize: Double, sigmaMax: Double, noiseFrac: Double)

  val higgsLike: Spec = Spec("higgsLike", dim = 7, numSuper = 15, numClusters = 405, k = 50,
                             boxSize = 100.0, sigmaMax = 8.0, noiseFrac = 0.01)
  val powerLike: Spec = Spec("powerLike", dim = 7, numSuper = 15, numClusters = 600, k = 100,
                             boxSize = 100.0, sigmaMax = 5.0, noiseFrac = 0.01)
  val wikiLike:  Spec = Spec("wikiLike", dim = 50, numSuper = 15, numClusters = 300, k = 60,
                             boxSize = 100.0, sigmaMax = 10.0, noiseFrac = 0.01)

  val all: Seq[Spec] = Seq(higgsLike, powerLike, wikiLike)

  // --- deterministic hashing ------------------------------------------------

  /** SplitMix64 finalizer: decorrelates sequential ids into RNG seeds. */
  private def splitmix64(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  private def rngFor(seed: Long, id: Long): scala.util.Random =
    new scala.util.Random(splitmix64(seed ^ splitmix64(id)))

  // --- generation -----------------------------------------------------------

  /** The fixed per-spec mixture, hierarchical: `numSuper` macro-clusters in a
    * Gaussian bulk around the box center, each carrying
    * numClusters/numSuper sub-clusters offset by ~1.5·sigmaMax, with
    * power-law sub-cluster scales. Real data has exactly this two-level
    * shape: a handful of modes (the outlier experiments run k = 20, which
    * resolves the macro level) with fine texture inside (fig. 2's
    * k = 50..100 resolves the sub level, so larger coresets keep paying off).
    * Deterministic in (spec, seed).
    */
  final case class Mixture(centers: Array[Array[Double]], sigmas: Array[Double],
                           superCenters: Array[Array[Double]])

  def mixture(spec: Spec, seed: Long): Mixture = {
    require(spec.numClusters % spec.numSuper == 0, "numClusters must divide by numSuper")
    val rnd = new scala.util.Random(splitmix64(seed ^ spec.name.hashCode.toLong))
    // Macro-centers spread wide (sigma = boxSize/4) relative to the
    // within-macro extent (~sigmaMax-scale orbits): k ≈ numSuper then
    // resolves the macro level with a radius well below the macro
    // separation, so losing a macro-cluster's representation is visible.
    val mid = spec.boxSize / 2.0
    val sigC = spec.boxSize / 4.0
    val superCenters =
      Array.fill(spec.numSuper)(Array.fill(spec.dim)(mid + rnd.nextGaussian() * sigC))
    val perSuper = spec.numClusters / spec.numSuper
    val off = 1.0 * spec.sigmaMax
    val centers = Array.tabulate(spec.numClusters) { ci =>
      val sc = superCenters(ci / perSuper)
      Array.tabulate(spec.dim)(j => sc(j) + rnd.nextGaussian() * off)
    }
    // Power-law scale mix: many tight micro-clusters, a few broad ones.
    val sigmas = Array.fill(spec.numClusters) {
      val u = rnd.nextDouble()
      spec.sigmaMax * math.max(0.02, u * u)
    }
    Mixture(centers, sigmas, superCenters)
  }

  /** Consecutive ids sharing a block draw from the same sub-cluster: real
    * datasets are order-correlated (Power is a literal time series; Higgs
    * and the Wiki dump are grouped by production process / article), and the
    * paper's contiguous-chunk partitioning inherits that skew — it is what
    * makes the adversarial experiment of Fig. 4 bite.
    */
  val ClusterBlock = 64L

  /** The point with identity `id` out of a stream of `n`: with prob.
    * noiseFrac a uniform background point; otherwise the id's position in
    * [0, n) selects the macro-cluster (macro-clusters are contiguous id
    * ranges — the order correlation above) and the id's block skew-picks a
    * sub-cluster inside it, at that sub-cluster's scale.
    * Pure in (spec, seed, id, n).
    */
  def genPoint(spec: Spec, mix: Mixture, seed: Long, id: Long, n: Long): Array[Double] = {
    val rnd = rngFor(seed, id)
    if (rnd.nextDouble() < spec.noiseFrac) {
      Array.fill(spec.dim)(rnd.nextDouble() * spec.boxSize)
    } else {
      val s = math.min(spec.numSuper - 1L, id * spec.numSuper / math.max(1L, n)).toInt
      val perSuper = spec.numClusters / spec.numSuper
      val u = rngFor(seed ^ 0xb10cL, id / ClusterBlock).nextDouble()
      // Cubic skew: a few dominant sub-clusters per macro-cluster, a long
      // tail of sparse ones (the Zipf-like size profile of real modes).
      val j = math.min(perSuper - 1, (perSuper * u * u * u).toInt)
      val ci = s * perSuper + j
      val c = mix.centers(ci)
      val sg = mix.sigmas(ci)
      Array.tabulate(spec.dim)(k => c(k) + rnd.nextGaussian() * sg)
    }
  }

  /** Local (driver-side) generation — streaming and sequential benches. */
  def localPoints(spec: Spec, n: Int, seed: Long): Array[Array[Double]] = {
    val mix = mixture(spec, seed)
    Array.tabulate(n)(i => genPoint(spec, mix, seed, i.toLong, n.toLong))
  }

  /** Spark-side generation — identical points to [[localPoints]] for equal
    * (spec, n, seed), independent of partitioning.
    */
  def points(spark: SparkSession, spec: Spec, n: Long, seed: Long,
             numPartitions: Int = 0): Dataset[DataPoint] = {
    import spark.implicits._
    val mix = mixture(spec, seed)
    val bc = spark.sparkContext.broadcast(mix)
    val base = if (numPartitions > 0) spark.range(0, n, 1, numPartitions) else spark.range(n)
    base.map(id => DataPoint(id, genPoint(spec, bc.value, seed, id, n), isOutlier = false))
  }

  // --- minimum enclosing ball (approximate) ---------------------------------

  /** Approximate MEB: centroid plus max distance to it. Within a factor 2 of
    * the true MEB radius — the paper's 100× outlier distance swallows the
    * slack (injected points stay ≥ 49·r_true from every input point, still
    * "true outliers").
    */
  def mebApprox(points: Iterable[Array[Double]]): (Array[Double], Double) = {
    val it0 = points.iterator
    require(it0.hasNext, "MEB of an empty set")
    val dim = points.head.length
    val sum = new Array[Double](dim)
    var n = 0L
    for (p <- points) {
      var j = 0
      while (j < dim) { sum(j) += p(j); j += 1 }
      n += 1
    }
    val c = sum.map(_ / n)
    var worst = 0.0
    for (p <- points) { val d = Points.sqDist(p, c); if (d > worst) worst = d }
    (c, math.sqrt(worst))
  }

  /** Spark version of [[mebApprox]]: two passes over the dataset. */
  def mebApproxDS(ds: Dataset[DataPoint]): (Array[Double], Double) = {
    val (sum, n) = ds.rdd
      .map(p => (p.vec, 1L))
      .treeReduce { case ((a, ca), (b, cb)) =>
        val s = a.clone()
        var j = 0
        while (j < s.length) { s(j) += b(j); j += 1 }
        (s, ca + cb)
      }
    val c = sum.map(_ / n)
    val worstSq = ds.rdd.map(p => Points.sqDist(p.vec, c)).max()
    (c, math.sqrt(worstSq))
  }

  // --- outlier injection (Sec. 5.2) -----------------------------------------

  /** The paper's injection: z points at distance 100·r_MEB from the MEB
    * center in random directions; rejection-resampled so that any two
    * injected points are ≥ 10·r_MEB apart (the paper verified this property).
    */
  def makeOutliers(center: Array[Double], rMeb: Double, z: Int, seed: Long): Array[Array[Double]] = {
    val dim = center.length
    val out = new scala.collection.mutable.ArrayBuffer[Array[Double]](z)
    val minSepSq = { val d = 10.0 * rMeb; d * d }
    var attempt = 0
    while (out.length < z) {
      val rnd = rngFor(seed ^ 0x0417113L, attempt.toLong)
      val dir = Array.fill(dim)(rnd.nextGaussian())
      val norm = math.sqrt(dir.map(x => x * x).sum)
      val p = Array.tabulate(dim)(j => center(j) + dir(j) / norm * 100.0 * rMeb)
      if (out.forall(q => Points.sqDist(p, q) >= minSepSq)) out += p
      attempt += 1
      require(attempt < z * 1000, s"outlier rejection sampling failed to place $z points")
    }
    out.toArray
  }

  /** Local: append z injected outliers; returns (all points, outlier flags
    * aligned with the returned array).
    */
  def withOutliers(points: Array[Array[Double]], z: Int, seed: Long): (Array[Array[Double]], Array[Boolean]) = {
    val (c, r) = mebApprox(points)
    val outs = makeOutliers(c, r, z, seed)
    (points ++ outs, Array.fill(points.length)(false) ++ Array.fill(outs.length)(true))
  }

  /** Spark: union the injected outliers (flagged) onto the dataset. */
  def withOutliersDS(spark: SparkSession, ds: Dataset[DataPoint], z: Int, seed: Long): Dataset[DataPoint] = {
    import spark.implicits._
    val (c, r) = mebApproxDS(ds)
    val maxId = ds.rdd.map(_.id).max()
    val outs = makeOutliers(c, r, z, seed).zipWithIndex.map { case (v, i) =>
      DataPoint(maxId + 1 + i, v, isOutlier = true)
    }
    ds.union(spark.createDataset(outs.toSeq))
  }

  // --- SMOTE-like inflation (Sec. 5.3) --------------------------------------

  /** The paper's scalability instances: each synthetic point is a uniformly
    * sampled base point perturbed per-coordinate by Gaussian noise with
    * σ = 10% of that coordinate's range over the base dataset.
    */
  def inflateDS(spark: SparkSession, base: Array[Array[Double]], totalN: Long, seed: Long,
                numPartitions: Int = 0): Dataset[DataPoint] = {
    import spark.implicits._
    val dim = base.head.length
    val lo = Array.tabulate(dim)(j => base.map(_(j)).min)
    val hi = Array.tabulate(dim)(j => base.map(_(j)).max)
    val sigma = Array.tabulate(dim)(j => 0.1 * (hi(j) - lo(j)))
    val bcBase = spark.sparkContext.broadcast(base)
    val bcSigma = spark.sparkContext.broadcast(sigma)
    val rng0 = if (numPartitions > 0) spark.range(0, totalN, 1, numPartitions) else spark.range(totalN)
    rng0.map { id =>
      val rnd = rngFor(seed ^ 0x1f1a7eL, id)
      val b = bcBase.value(rnd.nextInt(bcBase.value.length))
      val s = bcSigma.value
      DataPoint(id, Array.tabulate(b.length)(j => b(j) + rnd.nextGaussian() * s(j)), isOutlier = false)
    }
  }
}
