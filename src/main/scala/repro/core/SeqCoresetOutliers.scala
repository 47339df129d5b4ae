package repro.core

/** The paper's "improved sequential algorithm" (end of Sec. 3.2): the 2-round
  * MapReduce algorithm for k-center with z outliers run at ℓ = 1, entirely in
  * memory — build one weighted GMM coreset of the whole input (the trace
  * weighs as it goes) and run the radius search + OutliersCluster on it.
  *
  * Running time O(|S|·|T| + k·|T|²·log|T|) with |T| = (k+z)(24/ε)^D, versus
  * the O(k·|S|²·log|S|) of CharikarEtAl — this is what Fig. 8 measures.
  * The experiments fix the coreset size to τ = μ(k+z) instead of driving it
  * by ε̂ (μ = 1 reproduces MalkomesEtAl [26]).
  */
object SeqCoresetOutliers {

  /** `probes` come from the radius search. `optimumLowerBound` ≤ r*_{k,z}(S)
    * is the larger of the search's r_{k+z}(T)/2 (see
    * [[RadiusSearch.SearchResult]]) and, when the round-1 trace over S has at
    * least k+z centers, half its radius after k+z centers: those centers and
    * the farthest point are k+z+1 points pairwise at least that far apart, at
    * least k+1 of them are inliers, and two inliers share an optimal center.
    * The second bound is what certifies μ = 1, whose coreset of k+z points
    * gives the search none.
    */
  final case class Result(
      centers: Array[Array[Double]],
      radius: Double,
      coresetSize: Int,
      coresetMillis: Long,
      searchMillis: Long,
      probes: Int,
      optimumLowerBound: Double,
  )

  /** Fixed-size variant (benches): coreset of exactly τ = μ(k+z) points. */
  def runFixedSize(points: Array[Array[Double]], k: Int, z: Int, tau: Int,
                   hatEps: Double = 0.05, seed: Long = 42L): Result = {
    val t0 = System.nanoTime()
    solve(GMM.coresetBySize(points, tau, firstIndex(points, seed)), k, z, hatEps, seed, t0)
  }

  /** ε-driven variant (theory): stopping rule of Sec. 3.2 with base k+z. */
  def runByEpsilon(points: Array[Array[Double]], k: Int, z: Int,
                   hatEps: Double, seed: Long = 42L): Result = {
    val t0 = System.nanoTime()
    solve(GMM.coresetByEpsilon(points, k + z, hatEps, firstIndex(points, seed)), k, z, hatEps, seed, t0)
  }

  /** The seed-derived first GMM center; rejects an empty input first, which
    * would otherwise fail here as a division by zero.
    */
  private def firstIndex(points: Array[Array[Double]], seed: Long): Int = {
    require(points.nonEmpty, "the sequential coreset algorithm needs a non-empty input")
    math.floorMod(seed, points.length.toLong).toInt
  }

  /** Runs the radius search on the weighted round-1 `trace` (started at `t0`). */
  private def solve(trace: GMM.Trace, k: Int, z: Int,
                    hatEps: Double, seed: Long, t0: Long): Result = {
    val weighted = trace.weighted
    val t1 = System.nanoTime()
    val sr = RadiusSearch.search(weighted, k, z.toLong, hatEps, seed)
    val t2 = System.nanoTime()
    val traceBound = if (trace.size >= k + z) trace.radiusAfter(k + z - 1) / 2 else 0.0
    Result(sr.clustering.centers, sr.radius, weighted.length, (t1 - t0) / 1000000, (t2 - t1) / 1000000,
           sr.probes, math.max(sr.optimumLowerBound, traceBound))
  }
}
