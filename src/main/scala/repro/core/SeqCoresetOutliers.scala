package repro.core

/** The paper's "improved sequential algorithm" (end of Sec. 3.2): the 2-round
  * MapReduce algorithm for k-center with z outliers run at ℓ = 1, entirely in
  * memory — build one weighted GMM coreset of the whole input
  * ([[GMM.coreset]]) and solve on it with the radius search + OutliersCluster
  * ([[Solve.outliers]]).
  *
  * Running time O(|S|·|T| + k·|T|²·log|T|) with |T| = (k+z)(24/ε)^D, versus
  * the O(k·|S|²·log|S|) of CharikarEtAl — this is what Fig. 8 measures.
  * The experiments fix the coreset size to τ = μ(k+z) instead of driving it
  * by ε̂ (μ = 1 reproduces MalkomesEtAl [26]).
  */
object SeqCoresetOutliers {

  /** `optimumLowerBound` ≤ r*_{k,z}(S) is the larger of the search's
    * r_{k+z}(T)/2 and, when the coreset's GMM trace over S has at least k+z
    * centers, half its radius after k+z centers: those centers and the
    * farthest point are k+z+1 points pairwise at least that far apart, at
    * least k+1 of them are inliers, and two inliers share an optimal center.
    * The second bound is what certifies μ = 1, whose coreset of k+z points
    * gives the search none.
    */
  def run(points: Array[Array[Double]], k: Int, z: Int, spec: CoresetSpec,
          hatEps: Double = 0.05, seed: Long = 42L): Solution = {
    val t0 = System.nanoTime()
    val trace = GMM.coreset(points, spec, seed)
    val weighted = trace.weighted
    val traceBound = trace.radiusAfter.lift(k + z - 1).fold(0.0)(_ / 2)
    Solve.outliers(weighted, k, z, hatEps, seed, (System.nanoTime() - t0) / 1000000, traceBound)
  }

  // perfbench reads this name (QualitySpec); it goes when perfbench reads the run report (ROADMAP item 5).
  def runFixedSize(points: Array[Array[Double]], k: Int, z: Int, tau: Int, hatEps: Double = 0.05,
                   seed: Long = 42L): Solution = run(points, k, z, CoresetSpec.FixedSize(tau), hatEps, seed)
}
