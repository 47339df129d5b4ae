package repro.mr

import org.apache.spark.sql.Dataset
import repro.core.{CoresetSpec, GMM, WeightedPoint}
import repro.data.DataPoint

/** Round 1 of the 2-round MapReduce algorithms (Sec. 3.1 and 3.2), shared by
  * [[MRKCenter]] and [[MROutliers]]: route S into ℓ subsets, build the
  * weighted GMM coreset of each ([[GMM.coreset]]) in one pass, and gather the
  * union T on the driver.
  */
object Round1 {

  /** Rejects k < 1, z < 0 and ℓ < 1 on the driver, before any Spark job;
    * the drivers call it first, ahead of the coreset sizes built from them.
    */
  private[mr] def requireParams(k: Int, z: Int, ell: Int): Unit = {
    require(k >= 1, s"need k >= 1 centers, got k=$k")
    require(z >= 0, s"need z >= 0 outliers, got z=$z")
    require(ell >= 1, s"need ell >= 1 partitions, got ell=$ell")
  }

  /** The union of the per-partition coresets, in partition order; an empty
    * partition contributes nothing.
    */
  private[mr] def union(ds: Dataset[DataPoint], ell: Int, spec: CoresetSpec,
                        partitioning: Partitioning, seed: Long): Array[WeightedPoint] = {
    val union = partitioning.routed(ds, ell, seed)
      .mapPartitions { it =>
        val points = it.map(_.vec).toArray
        if (points.isEmpty) Iterator.empty else GMM.coreset(points, spec, seed).weighted.iterator
      }
      .collect()
    require(union.nonEmpty, "empty input dataset")
    union
  }
}
