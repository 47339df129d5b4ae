package repro.mr

import org.apache.spark.sql.Dataset
import repro.core.GMM
import repro.data.DataPoint

/** 2-round MapReduce algorithm for k-center (Sec. 3.1).
  *
  * Round 1: partition S into ℓ subsets; on each, run GMM incrementally to a
  * coreset T_i — either a fixed size τ (the experiments set τ = μk) or the
  * ε-stopping rule r(T^τ) ≤ (ε/2)·r(T^k). [[Round1]] maps over the routed
  * RDD's partitions, exactly the per-reducer computation of the paper; this
  * driver keeps only the vectors of its weighted coresets.
  *
  * Round 2: the union T = ∪T_i is gathered by a single reducer (the driver)
  * and GMM extracts the final k centers from T. (2+ε)-approximate
  * (Theorem 1); μ = 1 reproduces MalkomesEtAl [26].
  */
object MRKCenter {

  final case class Result(
      centers: Array[Array[Double]],
      coresetUnionSize: Int,
      round1Millis: Long,
      round2Millis: Long,
  )

  def run(ds: Dataset[DataPoint], k: Int, ell: Int, spec: CoresetSpec,
          partitioning: Partitioning = Partitioning.Arbitrary, seed: Long = 42L): Result = {
    val t0 = System.nanoTime()
    val union = Round1.union(ds, ell, spec, partitioning, seed).map(_.vec)
    val t1 = System.nanoTime()
    val centers = GMM.run(union, k, math.floorMod(seed, union.length.toLong).toInt)
    val t2 = System.nanoTime()
    Result(centers, union.length, (t1 - t0) / 1000000, (t2 - t1) / 1000000)
  }
}
