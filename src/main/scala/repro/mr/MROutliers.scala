package repro.mr

import org.apache.spark.sql.Dataset
import repro.core.{CoresetSpec, Solution, Solve}
import repro.data.DataPoint

/** 2-round MapReduce algorithms for k-center with z outliers (Sec. 3.2 and
  * 3.2.1).
  *
  * Round 1 ([[Round1.union]]): partition S into ℓ subsets; on each, GMM
  * builds a coreset T_i (size τ = μ(k+z) deterministic / τ = μ(k+6z/ℓ)
  * randomized in the experiments, or the ε̂-stopping rule with base k+z resp.
  * k+z'), and every coreset point gets the *weight* of the input points it
  * proxies, in one GMM pass per partition of the routed RDD.
  *
  * Round 2 ([[Solve.outliers]]): the single reducer (driver) gathers
  * T = ∪T_i and runs the (1+δ)-tolerant radius search driving
  * OUTLIERSCLUSTER. (3+ε)-approximate (Theorem 2 / Corollary 3);
  * deterministic μ = 1 reproduces MalkomesEtAl [26].
  */
object MROutliers {

  // perfbench reads this name; it goes when perfbench reads the run report (ROADMAP item 5).
  type Result = Solution

  /** The generic 2-round run: caller picks partitioning and coreset spec. */
  def run(ds: Dataset[DataPoint], k: Int, z: Int, ell: Int, spec: CoresetSpec,
          partitioning: Partitioning, hatEps: Double = 0.05, seed: Long = 42L): Solution = {
    Round1.requireParams(k, z, ell)
    val t0 = System.nanoTime()
    val union = Round1.union(ds, ell, spec, partitioning, seed)
    Solve.outliers(union, k, z, hatEps, seed, (System.nanoTime() - t0) / 1000000)
  }

  /** Deterministic algorithm (Sec. 3.2), experiment parametrization:
    * per-partition coreset size τ = μ(k+z).
    */
  def runDeterministic(ds: Dataset[DataPoint], k: Int, z: Int, ell: Int, mu: Int,
                       partitioning: Partitioning = Partitioning.Arbitrary,
                       hatEps: Double = 0.05, seed: Long = 42L): Solution = {
    Round1.requireParams(k, z, ell)
    run(ds, k, z, ell, CoresetSpec.FixedSize(mu * (k + z)), partitioning, hatEps, seed)
  }

  /** Randomized algorithm (Sec. 3.2.1), experiment parametrization: random
    * partitioning and τ = μ(k + 6z/ℓ) — Lemma 7's bound on outliers per
    * partition (log factor dropped, as in the paper's experiments).
    */
  def runRandomized(ds: Dataset[DataPoint], k: Int, z: Int, ell: Int, mu: Int,
                    hatEps: Double = 0.05, seed: Long = 42L): Solution = {
    Round1.requireParams(k, z, ell)
    val tau = mu * (k + (6 * z + ell - 1) / ell)
    run(ds, k, z, ell, CoresetSpec.FixedSize(tau), Partitioning.Random, hatEps, seed)
  }
}
