package repro.core

/** The paper's "improved sequential algorithm" (end of Sec. 3.2): the 2-round
  * MapReduce algorithm for k-center with z outliers run at ℓ = 1, entirely in
  * memory — build one GMM coreset of the whole input, weigh it, and run the
  * radius search + OutliersCluster on the coreset.
  *
  * Running time O(|S|·|T| + k·|T|²·log|T|) with |T| = (k+z)(24/ε)^D, versus
  * the O(k·|S|²·log|S|) of CharikarEtAl — this is what Fig. 8 measures.
  * The experiments fix the coreset size to τ = μ(k+z) instead of driving it
  * by ε̂ (μ = 1 reproduces MalkomesEtAl [26]).
  */
object SeqCoresetOutliers {

  /** `probes` and `optimumLowerBound` (r_{k+z}(T)/2 ≤ r*_{k,z}(S)) come from
    * the radius search; see [[RadiusSearch.SearchResult]].
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
    val firstIdx = math.floorMod(seed, points.length.toLong).toInt
    val trace = GMM.coresetBySize(points, tau, firstIdx)
    val weighted = GMM.weigh(points, trace.centers)
    val t1 = System.nanoTime()
    val sr = RadiusSearch.search(weighted, k, z.toLong, hatEps, seed)
    val t2 = System.nanoTime()
    Result(sr.clustering.centers, sr.radius, weighted.length,
           (t1 - t0) / 1000000, (t2 - t1) / 1000000, sr.probes, sr.optimumLowerBound)
  }

  /** ε-driven variant (theory): stopping rule of Sec. 3.2 with base k+z. */
  def runByEpsilon(points: Array[Array[Double]], k: Int, z: Int,
                   hatEps: Double, seed: Long = 42L): Result = {
    val t0 = System.nanoTime()
    val firstIdx = math.floorMod(seed, points.length.toLong).toInt
    val trace = GMM.coresetByEpsilon(points, k + z, hatEps, firstIdx)
    val weighted = GMM.weigh(points, trace.centers)
    val t1 = System.nanoTime()
    val sr = RadiusSearch.search(weighted, k, z.toLong, hatEps, seed)
    val t2 = System.nanoTime()
    Result(sr.clustering.centers, sr.radius, weighted.length,
           (t1 - t0) / 1000000, (t2 - t1) / 1000000, sr.probes, sr.optimumLowerBound)
  }
}
