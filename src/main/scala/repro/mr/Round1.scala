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
