package repro.streaming

import repro.core.Points
import scala.collection.mutable.ArrayBuffer

/** BASEOUTLIERS: the (4+ε)-approximation Streaming baseline for k-center
  * with z outliers of McCutchen & Khuller [27] (Fig. 5), rebuilt from the
  * algorithmic idea (DESIGN.md §4). The paper describes it as "a number m of
  * parallel instances of a (k·z)-space Streaming algorithm".
  *
  * Each instance holds a radius guess r (staggered geometrically across the
  * m instances, r_j = r0·2^{j/m}), ≤ k cluster centers, and a pool F of free
  * points of capacity (k+1)(z+1) ≈ k·z:
  *  - a point within 4r of a center is covered (dropped);
  *  - otherwise it joins F; any f ∈ F with ≥ z+1 free points within 2r
  *    (itself included) is promoted to a center and its 4r-ball leaves F;
  *  - a full pool with no promotable point falsifies the guess: the instance
  *    restarts at 2r, re-inserting centers and pool.
  * The answer comes from the smallest surviving guess after a final
  * promotion pass. Total space m·(k+1)(z+1) = Θ(m·k·z), matching Fig. 5's
  * space accounting.
  *
  * Implementation note: each pool point carries an incrementally maintained
  * count of its 2r-neighbors in F, so an uncovered insert costs O(|F|)
  * distance evaluations and the O(|F|²) count rebuild happens only after an
  * actual promotion or restart — never per point. The per-point cost is what
  * Fig. 5's throughput row measures; it is inherently ~k·z/(m·k) times the
  * coreset algorithm's, which is the paper's headline gap.
  */
final class BaseOutliers(k: Int, z: Int, m: Int) {
  require(k >= 1 && z >= 0 && m >= 1)
  val space: Int = m * (k + 1) * (z + 1)

  private[streaming] val poolCap = (k + 1) * (z + 1)

  private final class Instance(var r: Double) {
    var centers = new ArrayBuffer[Array[Double]](k)
    var free    = new ArrayBuffer[Array[Double]](poolCap + 1)
    /** cnt(i) = |{f in F : d(free(i), f) <= 2r}|, self included. */
    var cnt     = new ArrayBuffer[Int](poolCap + 1)
    private var promotable = false

    private def twoRSq  = { val d = 2.0 * r; d * d }
    private def fourRSq = { val d = 4.0 * r; d * d }

    /** Append an uncovered point, maintaining neighbor counts. */
    private def addFree(p: Array[Double]): Unit = {
      var c = 1
      var i = 0
      val lim = twoRSq
      while (i < free.length) {
        if (Points.sqDist(p, free(i)) <= lim) {
          cnt(i) += 1
          if (cnt(i) >= z + 1) promotable = true
          c += 1
        }
        i += 1
      }
      free += p
      cnt += c
      if (c >= z + 1) promotable = true
    }

    /** Rebuild all neighbor counts from scratch (after promotion/restart). */
    private def rebuildCounts(): Unit = {
      promotable = false
      val lim = twoRSq
      val n = free.length
      cnt = ArrayBuffer.fill(n)(1)
      var i = 0
      while (i < n) {
        var j = i + 1
        while (j < n) {
          if (Points.sqDist(free(i), free(j)) <= lim) { cnt(i) += 1; cnt(j) += 1 }
          j += 1
        }
        if (cnt(i) >= z + 1) promotable = true
        i += 1
      }
    }

    /** Promote dense pool points to centers while possible. */
    def promoteLoop(): Unit = {
      while (promotable && centers.length < k) {
        val i = cnt.indexWhere(_ >= z + 1)
        if (i < 0) promotable = false
        else {
          val c = free(i)
          centers += c
          val lim = fourRSq
          val kept = new ArrayBuffer[Array[Double]](free.length)
          var j = 0
          while (j < free.length) {
            if (Points.sqDist(free(j), c) > lim) kept += free(j)
            j += 1
          }
          free = kept
          rebuildCounts()
        }
      }
    }

    def insert(p: Array[Double]): Unit = {
      if (BaseStream.covered(p, centers, fourRSq)) return
      addFree(p)
      if (promotable) promoteLoop()
      // Guess falsified: double r until the pool fits. Once 2r exceeds every
      // pairwise distance, one promotion empties the pool; r can overflow
      // first only if the distances themselves overflow.
      while (free.length >= poolCap) {
        val carry = (centers ++ free).toArray
        centers = new ArrayBuffer[Array[Double]](k)
        free = new ArrayBuffer[Array[Double]](poolCap + 1)
        cnt = new ArrayBuffer[Int](poolCap + 1)
        promotable = false
        r *= 2.0
        if (r.isInfinite) throw new IllegalStateException("BaseOutliers: radius guess overflowed")
        var j = 0
        while (j < carry.length) {
          val q = carry(j)
          if (!BaseStream.covered(q, centers, fourRSq)) addFree(q)
          j += 1
        }
        promoteLoop()
      }
    }

    /** Alive = the guess is not falsified after a final promotion pass:
      * unused center budget or at most z leftover free points.
      */
    def aliveAfterFinalPromote(): Boolean = {
      promoteLoop()
      centers.length < k || free.length <= z
    }
  }

  private val initBuf = new ArrayBuffer[Array[Double]](k + z + 1)
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
      if (initBuf.length == k + z + 1) {
        // Among k+z+1 points, two non-outliers share an optimal center.
        instances = BaseStream.guesses(initBuf, m).map(new Instance(_))
        initBuf.foreach(q => instances.foreach(_.insert(q)))
      }
      return
    }
    var j = 0
    while (j < m) { instances(j).insert(p); j += 1 }
  }

  /** Pool size of every instance; each is below `poolCap` after an update. */
  private[streaming] def poolSizes: Seq[Int] =
    if (instances == null) Nil else instances.toSeq.map(_.free.length)

  /** Centers of the smallest surviving guess (leftover free points are the
    * instance's outlier estimate; callers evaluate the true objective on the
    * dataset).
    */
  def result(): Array[Array[Double]] = {
    if (instances == null) return initBuf.take(k).toArray
    val alive = instances.filter(_.aliveAfterFinalPromote())
    val best = (if (alive.nonEmpty) alive else instances).minBy(_.r)
    if (best.centers.nonEmpty) best.centers.toArray
    else best.free.take(k).toArray // degenerate tiny-stream case
  }
}
