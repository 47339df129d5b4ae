package repro.streaming

import repro.core.Points
import scala.collection.mutable.ArrayBuffer

/** BASESTREAM: the (2+ε)-approximation Streaming k-center baseline of
  * McCutchen & Khuller [27] (Fig. 3), rebuilt from the algorithmic idea
  * (DESIGN.md §4): m parallel instances with geometrically staggered radius
  * guesses covering a factor-2 range, r_j = r0·2^{j/m}.
  *
  * Each instance keeps ≤ k centers for its guess r: a point farther than 2r
  * from all centers becomes a center; an overflow (k+1 centers) falsifies the
  * guess — the instance restarts at guess 2r, re-inserting its old centers
  * (the standard doubling restart, which preserves coverage 2r_old + 2r_new).
  * The answer is the alive instance with the smallest guess; its radius is
  * ≤ 2(1+ε)·r*_k with (1+ε) = 2^{1/m}. Space: m·k centers, matching the
  * m·k space accounting of Fig. 3.
  */
final class BaseStream(k: Int, m: Int) {
  require(k >= 1 && m >= 1)
  val space: Int = m * k

  private final class Instance(var r: Double) {
    val centers = new ArrayBuffer[Array[Double]](k + 1)
    def insert(p: Array[Double]): Unit = {
      val twoRSq = { val d = 2.0 * r; d * d }
      if (!BaseStream.covered(p, centers, twoRSq)) {
        centers += p
        if (centers.length > k) { // guess falsified: double and re-insert
          val old = centers.toArray
          centers.clear()
          r *= 2.0
          old.foreach(insert)
        }
      }
    }
  }

  private val initBuf = new ArrayBuffer[Array[Double]](k + 1)
  private var instances: Array[Instance] = _
  private var processed = 0L
  private var dim = 0

  def pointsProcessed: Long = processed

  /** Points must have the first point's dimension and finite coordinates. */
  def update(p: Array[Double]): Unit = {
    if (processed == 0) dim = p.length
    Points.requirePoint(p, dim, "stream point", processed + 1)
    processed += 1
    if (instances == null) {
      initBuf += p
      if (initBuf.length == k + 1) {
        // Two of the first k+1 points share an optimal center.
        instances = BaseStream.guesses(initBuf, m).map(new Instance(_))
        initBuf.foreach(q => instances.foreach(_.insert(q)))
      }
      return
    }
    var j = 0
    while (j < m) { instances(j).insert(p); j += 1 }
  }

  /** Centers of the instance with the smallest surviving guess. */
  def result(): Array[Array[Double]] = {
    if (instances == null) return initBuf.toArray
    instances.minBy(_.r).centers.toArray
  }
}

object BaseStream {

  /** Whether some center lies within squared distance `limitSq` of `p`: the
    * buffer is scanned in place, each distance stops early past the limit,
    * and the scan stops at the first center within it. False on no centers.
    */
  private[streaming] def covered(p: Array[Double], centers: ArrayBuffer[Array[Double]],
                                 limitSq: Double): Boolean = {
    var i = 0
    while (i < centers.length) {
      if (Points.sqDistWithin(p, centers(i), limitSq) <= limitSq) return true
      i += 1
    }
    false
  }

  /** The m staggered radius guesses r0·2^{j/m} of both baselines, with r0 half
    * the smallest nonzero pairwise distance of the buffered `prefix`: a lower
    * bound on the optimum whenever two of its points must share an optimal
    * center (1e-12 for an all-duplicate prefix). Squared distances are
    * compared and one root is taken at the end: sqrt is monotone and positive
    * exactly on positive inputs.
    */
  private[streaming] def guesses(prefix: ArrayBuffer[Array[Double]], m: Int): Array[Double] = {
    var best = Double.PositiveInfinity
    for (i <- prefix.indices; j <- (i + 1) until prefix.length) {
      val d = Points.sqDist(prefix(i), prefix(j))
      if (d < best && d > 0) best = d
    }
    val r0 = (if (best == Double.PositiveInfinity) 1e-12 else math.sqrt(best)) / 2.0
    Array.tabulate(m)(j => r0 * math.pow(2.0, j.toDouble / m))
  }
}
