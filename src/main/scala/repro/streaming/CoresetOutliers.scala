package repro.streaming

import repro.core.{Solution, Solve}

/** CORESETOUTLIERS (Sec. 4; Fig. 5): the paper's 1-pass Streaming algorithm
  * for k-center with z outliers — a weighted [[DoublingCoreset]] of
  * τ = μ·(k+z) points collected during the pass, then at stream end the
  * solve step of the second MapReduce round ([[Solve.outliers]]: the radius
  * search driving OUTLIERSCLUSTER) on the coreset. (3+ε)-approximate for
  * τ = (k+z)(16/ε̂)^D (Theorem 3); the experiments parametrize by space
  * μ(k+z) directly.
  */
final class CoresetOutliers(k: Int, z: Int, mu: Int, hatEps: Double = 0.05, seed: Long = 42L) {
  require(k >= 1 && z >= 0 && mu >= 1)
  val space: Int = mu * (k + z)
  private val coreset = new DoublingCoreset(space)

  def update(p: Array[Double]): Unit = coreset.update(p)

  /** End-of-pass solve on the coreset; the pass itself is not timed. */
  def result(): Solution = Solve.outliers(coreset.result(), k, z, hatEps, seed, round1Millis = 0L)
}
