package repro.exp

import repro.eval.Evaluate

/** Steps shared by the figure harnesses: the paper's empirical approximation
  * ratio over one dataset's sweep, and the throughput of a streaming update
  * loop.
  */
private[exp] object Sweep {

  /** One cell of a sweep: its runs (in sweep order), their mean radius, and
    * that mean over the best radius of the whole sweep.
    */
  final case class Cell[K, R](key: K, runs: Seq[R], radius: Double, ratio: Double)

  /** Groups one dataset's `runs` into cells sorted by `key` and averages the
    * runs per cell, as the paper averages runs. The ratio's denominator is the
    * smallest radius of any run: "the best radius ever found across all
    * experiments with the same dataset and parameter configuration" (Sec. 5).
    */
  def cells[K: Ordering, R](runs: Seq[R])(key: R => K)(radius: R => Double): Seq[Cell[K, R]] = {
    val best = runs.map(radius).min
    runs.groupBy(key).toSeq.sortBy(_._1).map { case (k, rs) =>
      val rad = rs.map(radius).sum / rs.size
      Cell(k, rs, rad, rad / best)
    }
  }

  /** Feeds `stream` to `update` and returns the loop's throughput in kpts/s.
    * Only the update loop is timed: the paper ignores the cost of streaming
    * the data from memory.
    */
  def throughput(stream: Array[Array[Double]])(update: Array[Double] => Unit): Double = {
    val (_, ms) = Evaluate.timed(stream.foreach(update))
    stream.length.toDouble / math.max(1L, ms)
  }
}
