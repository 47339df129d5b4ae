package repro.core

/** The answer of every driver. `searchRadius` is the radius the solve step
  * settled on: the radius search's r̃_min, or r_k(T) without outliers.
  * `coresetSize` is |T|. `round1Millis` times building T (0 when a stream
  * built it during the pass), `round2Millis` the solve step. `probes` counts
  * OUTLIERSCLUSTER runs (0 without outliers). `optimumLowerBound` is a
  * certified lower bound on the optimum radius of the input.
  */
final case class Solution(
    centers: Array[Array[Double]],
    searchRadius: Double,
    coresetSize: Int,
    round1Millis: Long,
    round2Millis: Long,
    probes: Int,
    optimumLowerBound: Double,
) {
  // perfbench reads this name; it goes when perfbench reads the run report (ROADMAP item 5).
  def coresetUnionSize: Int = coresetSize
}

/** The second step shared by all drivers: solve on a coreset T that the
  * driver built (round 1, the doubling coreset, or the input itself).
  */
object Solve {

  /** k-center with z outliers (Sec. 3.2): the radius search driving
    * OUTLIERSCLUSTER on T ([[RadiusSearch.search]]). `optimumLowerBound` is
    * the larger of the search's r_{k+z}(T)/2 and the caller's `lowerBound`,
    * which must itself be ≤ r*_{k,z}(S).
    */
  def outliers(t: Array[WeightedPoint], k: Int, z: Int, hatEps: Double, seed: Long,
               round1Millis: Long, lowerBound: Double = 0.0): Solution = {
    val t0 = System.nanoTime()
    val sr = RadiusSearch.search(t, k, z.toLong, hatEps, seed)
    Solution(sr.clustering.centers, sr.radius, t.length, round1Millis, (System.nanoTime() - t0) / 1000000,
             sr.probes, math.max(sr.optimumLowerBound, lowerBound))
  }

  /** k-center (Sec. 3.1): GMM(k) on T, started at the seed's first index; it
    * returns every distinct point of T when there are at most k.
    * `searchRadius` is r_k(T), and `optimumLowerBound` = r_k(T)/2 ≤ r*_k(S)
    * for every S ⊇ T: the k centers and the farthest point are k+1 points
    * pairwise at least r_k(T) apart, and two of them share an optimal center.
    * Both are 0 when T has at most k distinct points.
    */
  def kCenter(t: Array[Array[Double]], k: Int, seed: Long, round1Millis: Long): Solution = {
    require(k >= 1, s"need k >= 1, got k=$k")
    val t0 = System.nanoTime()
    val trace = GMM.coreset(t, CoresetSpec.FixedSize(k), seed)
    val rK = trace.radiusAfter.last
    Solution(trace.centers, rK, t.length, round1Millis, (System.nanoTime() - t0) / 1000000, 0, rK / 2)
  }
}
