package repro.mr

import org.apache.spark.sql.Dataset
import repro.core.{CoresetSpec, Solution, Solve}
import repro.data.DataPoint

/** 2-round MapReduce algorithm for k-center (Sec. 3.1).
  *
  * Round 1 ([[Round1.union]]): partition S arbitrarily into ℓ subsets; on
  * each, run GMM incrementally to a coreset T_i — either a fixed size τ (the
  * experiments set τ = μk) or the ε-stopping rule r(T^τ) ≤ (ε/2)·r(T^k). This
  * driver keeps only the vectors of the weighted coresets.
  *
  * Round 2 ([[Solve.kCenter]]): the union T = ∪T_i is gathered by a single
  * reducer (the driver) and GMM extracts the final k centers from T, which
  * also certifies r_k(T)/2 ≤ r*_k(S). (2+ε)-approximate (Theorem 1); μ = 1
  * reproduces MalkomesEtAl [26].
  */
object MRKCenter {

  def run(ds: Dataset[DataPoint], k: Int, ell: Int, spec: CoresetSpec, seed: Long = 42L): Solution = {
    Round1.requireParams(k, 0, ell)
    val t0 = System.nanoTime()
    val union = Round1.union(ds, ell, spec, Partitioning.Arbitrary, seed).map(_.vec)
    Solve.kCenter(union, k, seed, (System.nanoTime() - t0) / 1000000)
  }
}
