package repro.mr

import org.apache.spark.sql.Dataset
import repro.core.GMM
import repro.data.DataPoint

/** 2-round MapReduce algorithm for k-center (Sec. 3.1).
  *
  * Round 1: partition S into ℓ subsets; on each, run GMM incrementally to a
  * coreset T_i — either a fixed size τ (the experiments set τ = μk) or the
  * ε-stopping rule r(T^τ) ≤ (ε/2)·r(T^k). Implemented as
  * `Dataset.mapPartitions`, exactly the per-reducer computation of the paper.
  *
  * Round 2: the union T = ∪T_i is gathered by a single reducer (the driver)
  * and GMM extracts the final k centers from T. (2+ε)-approximate
  * (Theorem 1); μ = 1 reproduces MalkomesEtAl [26].
  */
object MRKCenter {

  /** How round 1 stops GMM on each partition. */
  sealed trait CoresetSpec
  /** Fixed coreset size τ per partition (experiments: τ = μ·k). */
  final case class FixedSize(tau: Int) extends CoresetSpec
  /** ε-driven stopping rule with base k (theory sections). */
  final case class Precision(eps: Double, k: Int) extends CoresetSpec

  final case class Result(
      centers: Array[Array[Double]],
      coresetUnionSize: Int,
      round1Millis: Long,
      round2Millis: Long,
  )

  /** Round-1 kernel, shared with the outlier variant: GMM coreset of one
    * partition. The first GMM center is derived from the seed and partition
    * content so reruns are reproducible.
    */
  private[mr] def partitionCoreset(points: Array[Array[Double]], spec: CoresetSpec,
                                   seed: Long): Array[Array[Double]] = {
    if (points.isEmpty) return Array.empty
    val firstIdx = math.floorMod(seed, points.length.toLong).toInt
    val trace = spec match {
      case FixedSize(tau)      => GMM.coresetBySize(points, tau, firstIdx)
      case Precision(eps, k)   => GMM.coresetByEpsilon(points, k, eps, firstIdx)
    }
    trace.centers
  }

  def run(ds: Dataset[DataPoint], k: Int, ell: Int, spec: CoresetSpec,
          partitioning: Partitioning = Partitioning.Arbitrary, seed: Long = 42L): Result = {
    import ds.sparkSession.implicits._
    val t0 = System.nanoTime()
    val union: Array[Array[Double]] = partitioning(ds, ell, seed)
      .mapPartitions { it =>
        val pts = it.map(_.vec).toArray
        partitionCoreset(pts, spec, seed).iterator
      }
      .collect()
    require(union.nonEmpty, "empty input dataset")
    val t1 = System.nanoTime()
    val centers = GMM.run(union, k, math.floorMod(seed, union.length.toLong).toInt)
    val t2 = System.nanoTime()
    Result(centers, union.length, (t1 - t0) / 1000000, (t2 - t1) / 1000000)
  }
}
