package repro.streaming

import repro.core.{RadiusSearch, WeightedPoint}

/** CORESETOUTLIERS (Sec. 4; Fig. 5): the paper's 1-pass Streaming algorithm
  * for k-center with z outliers — a weighted [[DoublingCoreset]] of
  * τ = μ·(k+z) points collected during the pass, then the radius search
  * driving OUTLIERSCLUSTER on the coreset at stream end, exactly as in the
  * second MapReduce round. (3+ε)-approximate for τ = (k+z)(16/ε̂)^D
  * (Theorem 3); the experiments parametrize by space μ(k+z) directly.
  */
final class CoresetOutliers(k: Int, z: Int, mu: Int, hatEps: Double = 0.05, seed: Long = 42L) {
  require(k >= 1 && z >= 0 && mu >= 1)
  val space: Int = mu * (k + z)
  private val coreset = new DoublingCoreset(space)

  def update(p: Array[Double]): Unit = coreset.update(p)

  /** End-of-pass solve: radius search + OutliersCluster on the coreset. */
  def result(): CoresetOutliers.Solution = {
    val t: Array[WeightedPoint] = coreset.result()
    val sr = RadiusSearch.search(t, k, z.toLong, hatEps, seed)
    CoresetOutliers.Solution(sr.clustering.centers, sr.radius, t.length, sr.probes, sr.optimumLowerBound)
  }
}

object CoresetOutliers {
  /** `probes` and `optimumLowerBound` (r_{k+z}(T)/2 ≤ r*_{k,z}(S)) come from
    * the end-of-stream search; see [[RadiusSearch.SearchResult]].
    */
  final case class Solution(centers: Array[Array[Double]], searchRadius: Double, coresetSize: Int,
                            probes: Int, optimumLowerBound: Double)
}
