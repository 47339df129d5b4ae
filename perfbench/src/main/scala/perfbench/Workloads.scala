package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{GMM, OutliersCluster, RadiusSearch, WeightedPoint}
import repro.data.{DataPoint, Datasets}
import repro.eval.Evaluate
import repro.mr.{MROutliers, Partitioning}
import repro.streaming.{CoresetOutliers, DoublingCoreset}

/** The paper's outlier setting (Sec. 5.2), shared by every workload: k = 20
  * centers, z = 200 outliers (each input carries 200 injected ones) and
  * ε̂ = 0.05. Each MapReduce workload sets its own number of partitions ℓ.
  */
object Params {
  val K = 20
  val Z = 200
  val HatEps = 0.05
  /** Partitions of the generated input, fixed so that the random routing of
    * round 1, and hence every count, does not depend on the core count.
    */
  val SourcePartitions = 16
  /** Seed of the cluster geometry (the spec's mixture). The workload seed only
    * draws the points from it, so the work per solve, which follows the
    * geometry, varies little from seed to seed.
    */
  val MixtureSeed = 1234L
}

import Params._

/** One untraced solve: its answer and its wall times in seconds. `passSeconds`
  * is the time of the pass over the input points: the update loop for
  * streaming, the whole solve for MapReduce.
  */
final case class Solve(centers: Array[Array[Double]], radius: Double, size: Int,
                       seconds: Double, passSeconds: Double)

/** A workload: inputs made from the seed alone, and the solve that is timed. */
trait Workload {
  /** Input points, injected outliers included. */
  def points: Long
  def dim: Int
  /** The benchmark's lower bound on r*_{k,z} of the current inputs. */
  def lowerBound: Double
  /** One set-up: builds the inputs and the lower bound, and returns the
    * seconds each took.
    */
  def setUp(): (Double, Double)
  def solve(): Solve
  /** r_{T,Z_T}(S) of `centers` on the inputs. */
  def objective(centers: Array[Array[Double]]): Double
  /** One solve composed from the public calls of each layer, with a span
    * around each call. Returns per-layer values by metric name; `solve_s` is
    * the traced counterpart of [[Solve.seconds]], and `share.<layer>` is the
    * share of the solve spent in a layer.
    */
  def traced(spans: Spans): Map[String, Double]
}

object Workload {
  val names: Seq[String] = Seq("mr-round1", "round2-wiki", "stream-higgs")

  def apply(name: String, seed: Long, spark: => SparkSession): Workload = name match {
    case "mr-round1"    => new MapReduceWorkload(spark, Datasets.higgsLike, 1000000L, ell = 16, randomized = true, seed)
    // ℓ = 12 (|T| = 2640) rather than 16 (|T| = 3520): a solve takes about 4 s
    // instead of 6 s, which keeps a run short, and round 2 is still about 0.86
    // of it.
    case "round2-wiki"  => new MapReduceWorkload(spark, Datasets.wikiLike, 15000L, ell = 12, randomized = false, seed)
    case "stream-higgs" => new StreamWorkload(Datasets.higgsLike, 500000, mu = 4, seed)
    case other          => throw new IllegalArgumentException(s"unknown workload $other")
  }

  def usesSpark(name: String): Boolean = name != "stream-higgs"
}

/** Per-partition output of the benchmark's own round 1. */
final case class PartitionCoreset(coresetNs: Long, weighNs: Long, coreset: Array[WeightedPoint])

/** A 2-round MapReduce solve with μ = 1 and ℓ = `ell` partitions on a cached
  * Dataset: randomized (random routing, τ = k + ⌈6z/ℓ⌉) or deterministic with
  * every injected outlier routed to one partition (τ = k + z).
  */
final class MapReduceWorkload(spark: SparkSession, spec: Datasets.Spec, n: Long, ell: Int,
                              randomized: Boolean, seed: Long) extends Workload {
  import spark.implicits._

  private val partitioning = if (randomized) Partitioning.Random else Partitioning.AdversarialOutliers
  // The per-partition coreset size the drivers use at μ = 1.
  private val tau = if (randomized) K + (6 * Z + ell - 1) / ell else K + Z
  private var ds: Dataset[DataPoint] = _
  private var lb = 0.0
  private lazy val tasks = new TaskTimes(spark.sparkContext)

  val points: Long = n + Z
  val dim: Int = spec.dim
  def lowerBound: Double = lb

  def setUp(): (Double, Double) = {
    if (ds != null) ds.unpersist(blocking = true)
    val t0 = System.nanoTime()
    val mixture = spark.sparkContext.broadcast(Datasets.mixture(spec, MixtureSeed))
    val (specL, nL, seedL) = (spec, n, seed)
    val base = spark.range(0, n, 1, SourcePartitions).map(id =>
      DataPoint(id, Datasets.genPoint(specL, mixture.value, seedL, id, nL), isOutlier = false))
    ds = Datasets.withOutliersDS(spark, base, Z, seed).cache()
    require(ds.count() == points, "generated input has the wrong size")
    val t1 = System.nanoTime()
    lb = Quality.lowerBound(ds.rdd.map(_.vec).collect(), K, Z)
    ((t1 - t0) / 1e9, (System.nanoTime() - t1) / 1e9)
  }

  private def run(): MROutliers.Result =
    if (randomized) MROutliers.runRandomized(ds, K, Z, ell, 1, HatEps, seed)
    else MROutliers.runDeterministic(ds, K, Z, ell, 1, partitioning, HatEps, seed)

  def solve(): Solve = {
    val t0 = System.nanoTime()
    val r = run()
    val s = (System.nanoTime() - t0) / 1e9
    Solve(r.centers, r.searchRadius, r.coresetUnionSize, s, s)
  }

  def objective(centers: Array[Array[Double]]): Double = Evaluate.radiusWithOutliersDS(ds, centers, Z)

  def traced(spans: Spans): Map[String, Double] = {
    val (sizes, routeS) = spans.timed("mr.route") {
      partitioning(ds, ell, seed).mapPartitions(it => Iterator.single(it.size.toLong)).collect()
    }
    require(sizes.sum == points, "routing lost points")

    val ((res, solveS), taskS) =
      tasks.tagged(s"mr.solve-${spans.iteration}")(spans.timed("mr.solve")(run()))

    // Round 1 again, from the same calls the driver makes, timing GMM's two
    // steps inside each partition.
    val seedL = seed
    val tauL = tau
    val parts = spans("mr.round1") {
      partitioning(ds, ell, seed).mapPartitions { it =>
        val pts = it.map(_.vec).toArray
        if (pts.isEmpty) Iterator.empty
        else {
          val t0 = System.nanoTime()
          val trace = GMM.coresetBySize(pts, tauL, math.floorMod(seedL, pts.length.toLong).toInt)
          val t1 = System.nanoTime()
          val weighted = GMM.weigh(pts, trace.centers)
          Iterator.single(PartitionCoreset(t1 - t0, System.nanoTime() - t1, weighted))
        }
      }.collect()
    }
    val union = parts.flatMap(_.coreset)
    spans.count("mr.union_size", union.length.toDouble)

    val (sr, searchS) = spans.timed("search.round2")(RadiusSearch.search(union, K, Z.toLong, HatEps, seed))
    spans.count("search.probes", sr.probes.toDouble)
    val (_, firstScanS) = spans.timed("cluster.first_scan")(OutliersCluster.run(union, 1, sr.radius, HatEps))
    val (_, probeS) = spans.timed("cluster.probe")(OutliersCluster.run(union, K, sr.radius, HatEps))
    val (_, objectiveS) = spans.timed("eval.objective")(objective(res.centers))

    require(union.length == res.coresetUnionSize && sr.radius == res.searchRadius,
      s"composed layers (|T|=${union.length}, r=${sr.radius}) disagree with the driver " +
      s"(|T|=${res.coresetUnionSize}, r=${res.searchRadius})")

    Map(
      "solve_s" -> solveS,
      "share.round1" -> res.round1Millis.toDouble / (res.round1Millis + res.round2Millis),
      "share.round2" -> res.round2Millis.toDouble / (res.round1Millis + res.round2Millis),
      "mr.route_s" -> routeS,
      "mr.round1_s" -> res.round1Millis / 1000.0,
      "mr.task_s_max" -> taskS.max,
      "mr.task_s_median" -> Stats.median(taskS),
      "mr.union_size" -> res.coresetUnionSize.toDouble,
      "gmm.coreset_s" -> parts.map(_.coresetNs).sum / 1e9,
      "gmm.weigh_s" -> parts.map(_.weighNs).sum / 1e9,
      "search.round2_s" -> searchS,
      "search.probes" -> sr.probes.toDouble,
      "search.radius" -> sr.radius,
      "search.probe_s" -> searchS / sr.probes,
      "cluster.first_scan_s" -> firstScanS,
      "cluster.probe_s" -> probeS,
      "eval.objective_s" -> objectiveS,
    )
  }
}

/** CORESETOUTLIERS on one thread over a shuffled in-memory stream, no Spark. */
final class StreamWorkload(spec: Datasets.Spec, n: Int, mu: Int, seed: Long) extends Workload {
  private var stream: Array[Array[Double]] = _
  private var lb = 0.0

  val points: Long = n.toLong + Z
  val dim: Int = spec.dim
  def lowerBound: Double = lb

  def setUp(): (Double, Double) = {
    val t0 = System.nanoTime()
    val mixture = Datasets.mixture(spec, MixtureSeed)
    val sample = Array.tabulate(n)(i => Datasets.genPoint(spec, mixture, seed, i.toLong, n.toLong))
    val (pts, _) = Datasets.withOutliers(sample, Z, seed)
    val rnd = new scala.util.Random(seed)
    var i = pts.length - 1
    while (i > 0) { // Fisher–Yates
      val j = rnd.nextInt(i + 1)
      val t = pts(i); pts(i) = pts(j); pts(j) = t
      i -= 1
    }
    stream = pts
    val t1 = System.nanoTime()
    lb = Quality.lowerBound(stream, K, Z)
    ((t1 - t0) / 1e9, (System.nanoTime() - t1) / 1e9)
  }

  def solve(): Solve = {
    val algo = new CoresetOutliers(K, Z, mu, HatEps, seed)
    val t0 = System.nanoTime()
    var i = 0
    while (i < stream.length) { algo.update(stream(i)); i += 1 }
    val t1 = System.nanoTime()
    val sol = algo.result()
    val t2 = System.nanoTime()
    Solve(sol.centers, sol.searchRadius, sol.coresetSize, (t2 - t0) / 1e9, (t1 - t0) / 1e9)
  }

  def objective(centers: Array[Array[Double]]): Double =
    Evaluate.radiusWithOutliersLocal(stream, centers, Z)

  def traced(spans: Spans): Map[String, Double] = {
    // CoresetOutliers composed from its two layers, so that φ can be read.
    val space = mu * (K + Z)
    val coreset = new DoublingCoreset(space)
    val (phiInit, updateS) = spans.timed("stream.update") {
      var i = 0
      while (i <= space && i < stream.length) { coreset.update(stream(i)); i += 1 }
      val phi0 = coreset.phi // set when the first τ+1 points are in
      while (i < stream.length) { coreset.update(stream(i)); i += 1 }
      phi0
    }
    val t = coreset.result()
    val (sr, searchS) = spans.timed("stream.solve")(RadiusSearch.search(t, K, Z.toLong, HatEps, seed))
    val merges = math.round(math.log(coreset.phi / phiInit) / math.log(2.0)).toDouble
    spans.count("stream.merges", merges)
    spans.count("search.probes", sr.probes.toDouble)
    val (_, firstScanS) = spans.timed("cluster.first_scan")(OutliersCluster.run(t, 1, sr.radius, HatEps))
    val (_, probeS) = spans.timed("cluster.probe")(OutliersCluster.run(t, K, sr.radius, HatEps))
    val (_, objectiveS) = spans.timed("eval.objective")(objective(sr.clustering.centers))

    Map(
      "solve_s" -> (updateS + searchS),
      "share.update" -> updateS / (updateS + searchS),
      "stream.update_s" -> updateS,
      "stream.update_ns_per_pt" -> updateS * 1e9 / stream.length,
      "stream.merges" -> merges,
      "stream.coreset_size" -> t.length.toDouble,
      "stream.solve_s" -> searchS,
      "stream.probes" -> sr.probes.toDouble,
      "search.round2_s" -> searchS,
      "search.probes" -> sr.probes.toDouble,
      "search.radius" -> sr.radius,
      "search.probe_s" -> searchS / sr.probes,
      "cluster.first_scan_s" -> firstScanS,
      "cluster.probe_s" -> probeS,
      "eval.objective_s" -> objectiveS,
    )
  }
}
