package repro.core

/** The sequential 3-approximation baseline of Charikar et al. [16] for
  * k-center with z outliers, as characterized by the paper (Sec. 5.4):
  * "CHARIKARETAL amounts to O(log |S|) executions of our OutliersCluster
  * with ε̂ = 0 and unit weights on the entire input S" — i.e. the shared
  * solve step ([[Solve.outliers]]) on S itself: a radius search driving the
  * unweighted greedy disk cover with balls of radius r (selection) and 3r
  * (removal).
  *
  * Cost per probe is Θ(k·|S|²) in the worst case, which is why the paper's
  * Fig. 8 runs it on 10⁴-point samples only; so do we (DESIGN.md §4).
  */
object CharikarEtAl {

  def run(points: Array[Array[Double]], k: Int, z: Int, seed: Long = 42L): Solution =
    Solve.outliers(points.map(WeightedPoint(_, 1L)), k, z, hatEps = 0.0, seed, round1Millis = 0L)
}
