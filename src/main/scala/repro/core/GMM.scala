package repro.core

/** Incremental GMM (Gonzalez farthest-first traversal) [20].
  *
  * This is the workhorse of the paper: the sequential 2-approximation for
  * k-center, used (a) as the round-1 coreset constructor — run past k
  * iterations until either a fixed size τ or the stopping rule
  * r(T^τ) ≤ (ε/2)·r(T^k) is reached — and (b) as the round-2 solver on the
  * union of coresets.
  *
  * Complexity: O(|S|·τ) distance evaluations for τ selected centers, via the
  * classic "maintain d(s, T) per point" incremental update; each evaluation
  * stops once it exceeds the point's current d(s, T)²
  * ([[Points.sqDistWithin]]).
  *
  * Weights as it goes. Next to d(s, T)² the traversal keeps a(s), the index
  * of s's closest center so far. Both change only on a strict `<`, so a tie
  * keeps the earlier center, as [[Points.closestIndex]] does; the trace's
  * weights (the histogram of a) therefore equal [[weigh]] on its centers.
  *
  * Triangle pruning (Elkan, ICML 2003). When center c_j is added, point s
  * first compares d(c_j, c_a(s))² with 4·d(s, T)²·(1+1e-9). If it is at least
  * that, then d(c_j, c_a(s)) ≥ 2·d(s, c_a(s)) and
  * d(s, c_j) ≥ d(c_j, c_a(s)) − d(s, c_a(s)) ≥ d(s, c_a(s)), so the update of s
  * could not change anything and is skipped. Each center-to-center distance
  * is computed once per step, when a point first needs it: at most j per
  * step, and none for a center that proxies only itself (its own distance 0
  * switches the test off). At coreset sizes near |S| most centers are such,
  * and computing all j distances per step cost more than the updates saved
  * (Fig. 7's ℓ = 1, 2 rows on wikiLike). The relative margin is far
  * above the rounding error of a squared distance; it stops covering that
  * error only among subnormal terms, so the rule is off for a point once
  * 4·d(s, T)² < 2⁻⁹⁰⁰, as OutliersCluster's dead-candidate rule is.
  */
object GMM {

  /** Full trace of an incremental run: the selected center indices (into the
    * input array) in selection order, `radiusAfter(j)` = r_{T^{j+1}}(S),
    * the radius after the first j+1 centers (non-increasing), and
    * `weights(j)` = |{s : c_j is the first of s's closest centers}|, which
    * sums to |S|.
    */
  final case class Trace(points: Array[Array[Double]], centerIdx: Array[Int], radiusAfter: Array[Double],
                         weights: Array[Long]) {
    def centers: Array[Array[Double]] = centerIdx.map(points)
    def size: Int = centerIdx.length
    /** The centers with their proxy weights (Sec. 3.2). */
    def weighted: Array[WeightedPoint] =
      Array.tabulate(size)(j => WeightedPoint(points(centerIdx(j)), weights(j)))
  }

  /** Run GMM until `stop(iterationsDone, radiusSoFar)` returns true or the
    * radius reaches 0, so that duplicate inputs never become duplicate
    * centers. The first center is `points(firstIdx)` — the paper picks it
    * arbitrarily; [[coreset]] derives it from a seed so that runs are
    * reproducible yet shuffle-sensitive, as observed in Sec. 5.4. Rejects
    * mixed dimensions and non-finite coordinates: a NaN point would keep its
    * distance at `Double.MaxValue` and be re-selected for every later slot.
    */
  private def runWhile(points: Array[Array[Double]], firstIdx: Int)(stop: (Int, Double) => Boolean): Trace = {
    Points.requireUniform(points, "GMM input")
    val n = points.length
    val sqd = Array.fill(n)(Double.MaxValue)
    val near = new Array[Int](n)
    var centerIdx = new Array[Int](16)
    var size = 0
    val radBuf = new scala.collection.mutable.ArrayBuffer[Double]
    // toCenter(m) = d(c_j, c_m)², computed on demand: valid when stamp(m) == j.
    var toCenter = new Array[Double](16)
    var stamp = Array.fill(16)(-1)
    var skipped = 0L
    var next = firstIdx
    var continue = true
    while (continue) {
      val c = points(next)
      val j = size
      if (j == centerIdx.length) {
        centerIdx = java.util.Arrays.copyOf(centerIdx, 2 * j)
        toCenter = java.util.Arrays.copyOf(toCenter, 2 * j)
        stamp = java.util.Arrays.copyOf(stamp, 2 * j)
        java.util.Arrays.fill(stamp, j, 2 * j, -1)
      }
      centerIdx(j) = next
      size += 1
      // Update per-point distance-to-centers and find the new farthest point.
      var worst = -1.0
      var worstIdx = 0
      var i = 0
      while (i < n) {
        val s = sqd(i)
        // j = 0: s = MaxValue makes the limit ∞, and d(c_0, c_0)² = 0 never reaches it.
        val limit = 4.0 * s * (1.0 + PruneMargin)
        var skip = false
        if (limit >= MinPruneSq) {
          val a = near(i)
          if (stamp(a) != j) { toCenter(a) = Points.sqDist(c, points(centerIdx(a))); stamp(a) = j }
          skip = toCenter(a) >= limit
        }
        if (skip) skipped += 1
        else {
          val d = Points.sqDistWithin(points(i), c, s)
          if (d < s) { sqd(i) = d; near(i) = j }
        }
        if (sqd(i) > worst) { worst = sqd(i); worstIdx = i }
        i += 1
      }
      val r = math.sqrt(worst)
      radBuf += r
      next = worstIdx
      // Radius 0: every remaining point duplicates a center.
      continue = size < n && r > 0 && !stop(size, r)
    }
    prunedUpdates.addAndGet(skipped)
    val weights = new Array[Long](size)
    var i = 0
    while (i < n) { weights(near(i)) += 1L; i += 1 }
    Trace(points, java.util.Arrays.copyOf(centerIdx, size), radBuf.toArray, weights)
  }

  /** Relative margin of the pruning test, far above the rounding error of a
    * squared distance.
    */
  private val PruneMargin = 1e-9

  /** Below this squared threshold subnormal terms could exceed the margin,
    * so the pruning rule is off.
    */
  private val MinPruneSq = java.lang.Math.scalb(1.0, -900)

  /** Point updates skipped by the triangle rule since start-up, for tests. */
  private[core] val prunedUpdates = new java.util.concurrent.atomic.AtomicLong

  /** The seed-derived first center of a run over `n` ≥ 1 points. */
  private def firstIndex(n: Int, seed: Long): Int = {
    require(n > 0, "GMM needs a non-empty input")
    math.floorMod(seed, n.toLong).toInt
  }

  /** The weighted GMM coreset that `spec` asks for, from the seed's first
    * index: one per partition in MapReduce round 1, one of S sequentially,
    * and the k (or k+z) centers of the solve step on T. `FixedSize(tau)`
    * stops after τ centers. `Precision(eps, kBase)` is the paper's ε-driven
    * coreset (Sec. 3.1/3.2): at least kBase centers, then on until
    * r(T^τ) ≤ (eps/2)·r(T^kBase).
    */
  def coreset(points: Array[Array[Double]], spec: CoresetSpec, seed: Long): Trace = {
    val firstIdx = firstIndex(points.length, seed)
    spec match {
      case CoresetSpec.FixedSize(tau) => runWhile(points, firstIdx)((done, _) => done >= tau)
      case CoresetSpec.Precision(eps, kBase) =>
        var rAtKBase = Double.NaN
        runWhile(points, firstIdx) { (done, r) =>
          if (done == kBase) rAtKBase = r
          done >= kBase && r <= (eps / 2.0) * rAtKBase
        }
    }
  }

  // perfbench reads this name; it goes when perfbench reads the run report (ROADMAP item 5).
  def coresetBySize(points: Array[Array[Double]], tau: Int, seed: Long): Trace =
    coreset(points, CoresetSpec.FixedSize(tau), seed)

  /** Attach proxy weights to any coreset: w_t = |{s : p(s) = t}| where p maps
    * each input point to its closest coreset point, the first on ties
    * (Sec. 3.2). Weights sum to |S| by construction. A GMM trace carries
    * these weights for its own centers already ([[Trace.weighted]]).
    */
  def weigh(points: Array[Array[Double]], coreset: Array[Array[Double]]): Array[WeightedPoint] = {
    val w = new Array[Long](coreset.length)
    var i = 0
    while (i < points.length) {
      w(Points.closestIndex(points(i), coreset)) += 1L
      i += 1
    }
    coreset.zip(w).map { case (v, wt) => WeightedPoint(v, wt) }
  }
}

/** How GMM stops when it builds a coreset ([[GMM.coreset]]). A bad spec is
  * rejected where it is made, on the driver, not inside a Spark task.
  */
sealed trait CoresetSpec

object CoresetSpec {
  /** Fixed coreset size τ (experiments: τ = μ·k, μ·(k+z) or μ·(k+6z/ℓ)). */
  final case class FixedSize(tau: Int) extends CoresetSpec {
    require(tau >= 1, s"coreset size tau must be at least 1, got $tau")
  }
  /** The ε-stopping rule r(T^τ) ≤ (eps/2)·r(T^kBase) (theory sections):
    * kBase = k for k-center, k+z (deterministic) or k+z' (randomized) with
    * outliers, where eps is ε̂.
    */
  final case class Precision(eps: Double, kBase: Int) extends CoresetSpec {
    require(eps > 0 && eps <= 1, s"eps must be in (0,1], got $eps")
    require(kBase >= 1, s"kBase must be at least 1, got $kBase")
  }
}
