package repro.mr

import org.apache.spark.sql.Dataset
import repro.core.{GMM, WeightedPoint}
import repro.data.DataPoint

/** How round 1 stops GMM on each partition. */
sealed trait CoresetSpec

object CoresetSpec {
  /** Fixed coreset size τ per partition (experiments: τ = μ·k, μ·(k+z) or
    * μ·(k+6z/ℓ)).
    */
  final case class FixedSize(tau: Int) extends CoresetSpec
  /** The ε-stopping rule r(T^τ) ≤ (eps/2)·r(T^kBase) (theory sections):
    * kBase = k for k-center, k+z (deterministic) or k+z' (randomized) with
    * outliers, where eps is ε̂.
    */
  final case class Precision(eps: Double, kBase: Int) extends CoresetSpec
}

/** Round 1 of the 2-round MapReduce algorithms (Sec. 3.1 and 3.2), shared by
  * [[MRKCenter]] and [[MROutliers]]: route S into ℓ subsets, build a weighted
  * GMM coreset of each in one pass, and gather the union T on the driver.
  */
object Round1 {

  /** The weighted GMM coreset of one partition; every coreset point weighs
    * the points it proxies. The first GMM center is derived from the seed and
    * the partition size, so reruns are reproducible.
    */
  def coreset(points: Array[Array[Double]], spec: CoresetSpec, seed: Long): Array[WeightedPoint] = {
    if (points.isEmpty) return Array.empty
    val firstIdx = math.floorMod(seed, points.length.toLong).toInt
    val trace = spec match {
      case CoresetSpec.FixedSize(tau)       => GMM.coresetBySize(points, tau, firstIdx)
      case CoresetSpec.Precision(eps, base) => GMM.coresetByEpsilon(points, base, eps, firstIdx)
    }
    trace.weighted
  }

  /** The union of the per-partition coresets, in partition order. */
  private[mr] def union(ds: Dataset[DataPoint], ell: Int, spec: CoresetSpec,
                        partitioning: Partitioning, seed: Long): Array[WeightedPoint] = {
    val union = partitioning.routed(ds, ell, seed)
      .mapPartitions(it => coreset(it.map(_.vec).toArray, spec, seed).iterator)
      .collect()
    require(union.nonEmpty, "empty input dataset")
    union
  }
}
