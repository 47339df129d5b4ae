package repro.streaming

import repro.core.{Solution, Solve}

/** CORESETSTREAM (Sec. 4, closing remark; Fig. 3): the paper's coreset-based
  * 1-pass Streaming algorithm for k-center *without* outliers — a
  * [[DoublingCoreset]] of τ = μ·k points (weights unused), followed at stream
  * end by the k-center solve step ([[Solve.kCenter]]: GMM extracting the
  * final k centers). (2+ε)-approximate for τ = k(1/ε)^D; the experiments
  * parametrize by space μ·k directly.
  */
final class CoresetStream(k: Int, mu: Int) {
  require(k >= 1 && mu >= 1)
  val space: Int = mu * k
  private val coreset = new DoublingCoreset(space, weighted = false)

  def update(p: Array[Double]): Unit = coreset.update(p)

  /** End-of-pass solve on the coreset, GMM started at its first point. */
  def result(): Solution = Solve.kCenter(coreset.result().map(_.vec), k, seed = 0L, round1Millis = 0L)
}
