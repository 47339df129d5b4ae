package repro.core

/** Brute-force exact k-center (with and without outliers) for tiny inputs.
  *
  * Only used as test ground truth: the paper estimates approximation ratios
  * against the best radius ever found (the problems are NP-hard), but on
  * ≤ ~15 points we can afford the exact optimum r*_k(S) / r*_{k,z}(S) to
  * verify the theoretical guarantees (2-approx for GMM, 3-approx for
  * CharikarEtAl, Lemma 5, …).
  */
object ExactKCenter {

  /** Optimal radius r*_{k,z}(S) for the formulation with z outliers; z = 0
    * gives the plain k-center optimum r*_k(S). Cost: C(n,k)·n·k — keep n tiny.
    */
  def optimalRadiusWithOutliers(points: Array[Array[Double]], k: Int, z: Int): Double = {
    require(points.nonEmpty && k >= 1 && z >= 0)
    if (k + z >= points.length) return 0.0
    points.indices.combinations(k)
      .map(idx => Points.radiusWithOutliers(points, idx.map(points).toArray, z))
      .min
  }
}
