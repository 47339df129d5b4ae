package repro.core

/** Algorithm 1 of the paper: weighted outliers clustering.
  *
  * OUTLIERSCLUSTER(T, k, r, ε̂) greedily builds at most k centers. In each
  * iteration the next center x is the point of T (covered or not — the paper
  * notes x need not be uncovered) maximizing the aggregate weight of the
  * *uncovered* points within distance (1+2ε̂)·r of x; afterwards every
  * uncovered point within (3+4ε̂)·r of x becomes covered. Terminates when
  * k centers are chosen or everything is covered.
  *
  * With ε̂ = 0 and unit weights on the full input this is exactly the
  * sequential 3-approximation of Charikar et al. [16] for one radius guess.
  *
  * Implementation notes (pure optimizations — selection is still the exact
  * argmax of the paper, ties broken by lowest index):
  *  - the first argmax needs every candidate's ball weight over all of T;
  *    [[ballWeights]] computes them in one parallel pass over the pairs, for
  *    as many radii as the caller asks, so the radius search shares each
  *    pair's distance across its probes;
  *  - later iterations use lazy re-evaluation: a candidate's ball weight is
  *    non-increasing over iterations (the uncovered set only shrinks), so a
  *    max-heap of cached weights needs to refresh only entries that surface
  *    at the top — the classic lazy-greedy argument applies verbatim. Stale
  *    heads are refreshed in parallel batches; every cached weight stays an
  *    upper bound, so a fresh head is still the exact argmax.
  */
object OutliersCluster {

  /** @param centers   the selected centers X, |X| ≤ k
    * @param uncovered the final T' (points farther than (3+4ε̂)r from X)
    * @param uncoveredWeight aggregate weight of `uncovered` — the quantity the
    *                        radius search compares against z
    */
  final case class Result(
      centers: Array[Array[Double]],
      uncovered: Array[WeightedPoint],
      uncoveredWeight: Long,
  )

  def run(t: Array[WeightedPoint], k: Int, r: Double, hatEps: Double): Result = {
    require(r >= 0, s"radius must be non-negative, got $r")
    require(hatEps >= 0, s"eps-hat must be non-negative, got $hatEps")
    validate(t)
    greedy(t, k, r, hatEps, ballWeights(t, Array(innerSq(r, hatEps)))(0))
  }

  /** Requires one dimension, finite coordinates and weights ≥ 1 throughout T:
    * the distance kernels assume the first two, the radius search's
    * certificates the third. O(|T|·d).
    */
  def validate(t: Array[WeightedPoint]): Unit = {
    if (t.nonEmpty) Points.requireUniform(t.map(_.vec), "coreset")
    var i = 0
    while (i < t.length) {
      require(t(i).weight >= 1L, s"coreset point $i has weight ${t(i).weight} < 1")
      i += 1
    }
  }

  /** Squared radius of the selection ball B_x at radius guess r. */
  def innerSq(r: Double, hatEps: Double): Double = { val d = (1.0 + 2.0 * hatEps) * r; d * d }

  /** Every candidate's selection-ball weight over all of T at several radii:
    * `ballWeights(t, innerSqs)(j)(i)` is the weight of the points of T within
    * squared distance `innerSqs(j)` of `t(i)`. `innerSqs` must be ascending.
    * One parallel pass over all pairs bins each squared distance against the
    * thresholds; cumulative sums follow.
    */
  def ballWeights(t: Array[WeightedPoint], innerSqs: Array[Double]): Array[Array[Long]] = {
    val m = innerSqs.length
    require((1 until m).forall(j => innerSqs(j - 1) <= innerSqs(j)), "thresholds must be ascending")
    val n = t.length
    val vecs = t.map(_.vec)
    val ws = t.map(_.weight)
    val out = Array.ofDim[Long](m, n)
    if (m > 0) {
      val top = innerSqs(m - 1)
      Par.forRange(n) { i =>
        val cv = vecs(i)
        val bins = new Array[Long](m)
        var j = 0
        while (j < n) {
          val d = Points.sqDist(cv, vecs(j))
          if (d <= top) {
            var b = 0
            while (d > innerSqs(b)) b += 1
            bins(b) += ws(j)
          }
          j += 1
        }
        var acc = 0L
        var b = 0
        while (b < m) { acc += bins(b); out(b)(i) = acc; b += 1 }
      }
    }
    out
  }

  /** The greedy of Algorithm 1, seeded with every candidate's ball weight over
    * all of T at this radius (`initial(i)` for `t(i)`, as [[ballWeights]]
    * returns them). Callers validate T.
    */
  def greedy(t: Array[WeightedPoint], k: Int, r: Double, hatEps: Double, initial: Array[Long]): Result = {
    val n = t.length
    require(initial.length == n, s"need $n initial weights, got ${initial.length}")
    val vecs = t.map(_.vec)
    val ws = t.map(_.weight)
    val inSq = innerSq(r, hatEps)
    val outerSq = { val d = (3.0 + 4.0 * hatEps) * r; d * d } // ball E_x

    // Compact array of indices of currently uncovered points.
    val unc    = Array.tabulate(n)(identity)
    var uncLen = n

    def ballWeight(cand: Int): Long = {
      val cv = vecs(cand)
      var w = 0L
      var ui = 0
      while (ui < uncLen) {
        if (Points.sqDist(cv, vecs(unc(ui))) <= inSq) w += ws(unc(ui))
        ui += 1
      }
      w
    }

    // Max-heap over (cachedWeight, -index); `freshAt(i)` is the iteration the
    // cache entry for candidate i was computed in.
    val cached  = initial.clone()
    val freshAt = new Array[Int](n)
    val heap = new java.util.PriorityQueue[Integer](math.max(1, n),
      (a: Integer, b: Integer) => {
        val c = java.lang.Long.compare(cached(b.intValue), cached(a.intValue))
        if (c != 0) c else Integer.compare(a.intValue, b.intValue)
      })
    var i = 0
    while (i < n) { heap.add(i); i += 1 }

    val stale = new Array[Int](2 * (Par.parallelism + 1))
    val centers = new scala.collection.mutable.ArrayBuffer[Array[Double]](k)
    var iter = 0
    while (centers.length < k && uncLen > 0) {
      // Lazy argmax: refresh stale heads, a batch at a time, until the head
      // is current.
      var batch = -1
      while (batch != 0) {
        batch = 0
        while (batch < stale.length && !heap.isEmpty && freshAt(heap.peek().intValue) != iter) {
          stale(batch) = heap.poll().intValue
          batch += 1
        }
        if (batch > 0) Par.forRange(batch)(s => cached(stale(s)) = ballWeight(stale(s)))
        var s = 0
        while (s < batch) { freshAt(stale(s)) = iter; heap.add(stale(s)); s += 1 }
      }
      val x = vecs(heap.peek().intValue) // candidates stay eligible in later iterations
      centers += x
      // Remove the outer ball E_x from the uncovered set.
      var keep = 0
      var ui = 0
      while (ui < uncLen) {
        if (Points.sqDist(x, vecs(unc(ui))) > outerSq) { unc(keep) = unc(ui); keep += 1 }
        ui += 1
      }
      uncLen = keep
      iter += 1
    }

    val uncovered = Array.tabulate(uncLen)(j => WeightedPoint(vecs(unc(j)), ws(unc(j))))
    Result(centers.toArray, uncovered, uncovered.map(_.weight).sum)
  }

  /** Just the uncovered weight for a radius guess — the feasibility probe the
    * radius search uses (feasible iff ≤ z).
    */
  def uncoveredWeight(t: Array[WeightedPoint], k: Int, r: Double, hatEps: Double): Long =
    run(t, k, r, hatEps).uncoveredWeight
}
