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
  */
object GMM {

  /** Full trace of an incremental run: the selected center indices (into the
    * input array) in selection order, and `radiusAfter(j)` = r_{T^{j+1}}(S),
    * the radius after the first j+1 centers. Radii are non-increasing.
    */
  final case class Trace(points: Array[Array[Double]], centerIdx: Array[Int], radiusAfter: Array[Double]) {
    def centers: Array[Array[Double]] = centerIdx.map(points)
    def size: Int = centerIdx.length
    /** Centers of the prefix of length j (the paper's T^j). */
    def prefix(j: Int): Array[Array[Double]] = centerIdx.take(j).map(points)
  }

  /** Run GMM until `stop(iterationsDone, radiusSoFar)` returns true or the
    * radius reaches 0, so that duplicate inputs never become duplicate
    * centers. The first center is `points(firstIdx)` — the paper picks it
    * arbitrarily; benches pass a seed-derived index so that runs are
    * reproducible yet shuffle-sensitive, as observed in Sec. 5.4. Rejects
    * mixed dimensions and non-finite coordinates: a NaN point would keep its
    * distance at `Double.MaxValue` and be re-selected for every later slot.
    */
  def runWhile(points: Array[Array[Double]], firstIdx: Int)(stop: (Int, Double) => Boolean): Trace = {
    require(points.nonEmpty, "GMM needs a non-empty input")
    Points.requireUniform(points, "GMM input")
    val n = points.length
    val sqd = Array.fill(n)(Double.MaxValue)
    val idxBuf = new scala.collection.mutable.ArrayBuffer[Int]
    val radBuf = new scala.collection.mutable.ArrayBuffer[Double]
    var next = firstIdx % n
    var continue = true
    while (continue) {
      val c = points(next)
      idxBuf += next
      // Update per-point distance-to-centers and find the new farthest point.
      var worst = -1.0
      var worstIdx = 0
      var i = 0
      while (i < n) {
        val d = Points.sqDistWithin(points(i), c, sqd(i))
        if (d < sqd(i)) sqd(i) = d
        if (sqd(i) > worst) { worst = sqd(i); worstIdx = i }
        i += 1
      }
      val r = math.sqrt(worst)
      radBuf += r
      next = worstIdx
      // Radius 0: every remaining point duplicates a center.
      continue = idxBuf.length < n && r > 0 && !stop(idxBuf.length, r)
    }
    Trace(points, idxBuf.toArray, radBuf.toArray)
  }

  /** Plain GMM: k centers (or all points if |S| < k). */
  def run(points: Array[Array[Double]], k: Int, firstIdx: Int = 0): Array[Array[Double]] =
    runWhile(points, firstIdx)((done, _) => done >= k).centers

  /** The paper's ε-driven coreset (Sec. 3.1/3.2): run at least `kBase`
    * iterations, then continue until r(T^τ) ≤ (eps/2)·r(T^kBase).
    * `kBase` is k for plain k-center, k+z (or k+z') for the outlier variants.
    */
  def coresetByEpsilon(points: Array[Array[Double]], kBase: Int, eps: Double, firstIdx: Int = 0): Trace = {
    require(eps > 0 && eps <= 1, s"eps must be in (0,1], got $eps")
    var rAtKBase = Double.NaN
    runWhile(points, firstIdx) { (done, r) =>
      if (done == kBase) rAtKBase = r
      done >= kBase && r <= (eps / 2.0) * rAtKBase
    }
  }

  /** Fixed-size coreset (the experiments fix τ = μ·(k[+z]) instead of ε). */
  def coresetBySize(points: Array[Array[Double]], tau: Int, firstIdx: Int = 0): Trace =
    runWhile(points, firstIdx)((done, _) => done >= tau)

  /** Attach proxy weights to a coreset: w_t = |{s : p(s) = t}| where p maps
    * each input point to its closest coreset point (Sec. 3.2). Weights sum
    * to |S| by construction.
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
