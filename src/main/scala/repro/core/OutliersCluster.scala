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
  * argmax of the paper, ties broken by lowest index, and every output is
  * bit-identical to the plain scan):
  *  - every distance is only compared with a threshold, so every distance is
  *    computed by [[Points.sqDistWithin]], which stops once the partial sum
  *    exceeds the threshold and otherwise returns [[Points.sqDist]] exactly;
  *  - the first argmax needs every candidate's ball weight over all of T;
  *    [[ballWeights]] computes them in one parallel pass that visits each
  *    unordered pair once, for as many radii as the caller asks, so the
  *    radius search shares each pair's distance across its probes;
  *  - later iterations use lazy re-evaluation: a candidate's ball weight is
  *    non-increasing over iterations (the uncovered set only shrinks), so a
  *    max-heap of cached weights needs to refresh only entries that surface
  *    at the top — the classic lazy-greedy argument applies verbatim. Stale
  *    heads are refreshed in parallel batches of 8·(cores+1); every cached
  *    weight stays an upper bound, so a fresh head is still the exact argmax;
  *  - dead candidates (the triangle-inequality argument of Elkan, ICML 2003):
  *    once x is chosen, a candidate c with d(x, c) ≤ (2+2ε̂)r has its
  *    selection ball inside E_x, since d(x, u) ≤ d(x, c) + d(c, u) ≤
  *    (2+2ε̂)r + (1+2ε̂)r = (3+4ε̂)r, so its weight is 0 for good and its
  *    refreshes compute no distance. The test is made on squared distances
  *    against ((2+2ε̂)r)²·(1 − 1e-9): a computed squared distance in d
  *    dimensions is within a relative (d+2)·2^-53 of the true one (6e-15 at
  *    d = 50), far inside that margin for any d up to 10^6, as long as no
  *    term is subnormal. So the rule is off at r = 0 and wherever the squared
  *    threshold is below 2^-900, where a subnormal term's absolute error
  *    could matter.
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
    * One parallel pass visits each unordered pair {i, j} once and bins its
    * squared distance against the thresholds, adding w_j to i's bin and w_i
    * to j's; cumulative sums follow. Each worker keeps its own |T|×m counts
    * (O(cores·|T|·m) memory) and takes the next row as it finishes one, so
    * the long first rows spread over the workers; the integer sums are exact
    * whatever the split.
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
      def bin(d: Double): Int = { var b = 0; while (d > innerSqs(b)) b += 1; b }
      val workers = Par.parallelism + 1
      val counts = Array.fill(workers)(new Array[Long](n * m)) // row i at i·m
      val nextRow = new java.util.concurrent.atomic.AtomicInteger
      Par.forRange(workers) { c =>
        val own = counts(c)
        var i = nextRow.getAndIncrement()
        while (i < n) {
          val vi = vecs(i)
          val wi = ws(i)
          if (top >= 0.0) own(i * m + bin(0.0)) += wi // the pair (i, i)
          var j = i + 1
          while (j < n) {
            val d = Points.sqDistWithin(vi, vecs(j), top)
            if (d <= top) {
              val b = bin(d)
              own(i * m + b) += ws(j)
              own(j * m + b) += wi
            }
            j += 1
          }
          i = nextRow.getAndIncrement()
        }
      }
      Par.forRange(n) { i =>
        var acc = 0L
        var b = 0
        while (b < m) {
          var c = 0
          while (c < workers) { acc += counts(c)(i * m + b); c += 1 }
          out(b)(i) = acc
          b += 1
        }
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
    // Candidates this close to a chosen center are dead (see the notes above).
    val deadSq = { val d = (2.0 + 2.0 * hatEps) * r; d * d * (1.0 - DeadMargin) }
    val deadRule = deadSq >= MinDeadSq
    val dead = new Array[Boolean](n)
    var marked = 0L

    // Compact array of indices of currently uncovered points.
    val unc    = Array.tabulate(n)(identity)
    var uncLen = n

    def ballWeight(cand: Int): Long = if (dead(cand)) 0L else {
      val cv = vecs(cand)
      var w = 0L
      var ui = 0
      while (ui < uncLen) {
        if (Points.sqDistWithin(cv, vecs(unc(ui)), inSq) <= inSq) w += ws(unc(ui))
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

    val stale = new Array[Int](RefreshBatch * (Par.parallelism + 1))
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
        if (Points.sqDistWithin(x, vecs(unc(ui)), outerSq) > outerSq) { unc(keep) = unc(ui); keep += 1 }
        ui += 1
      }
      uncLen = keep
      iter += 1
      if (deadRule && centers.length < k && uncLen > 0) {
        // A cached weight of 0 is final already.
        var c = 0
        while (c < n) {
          if (!dead(c) && cached(c) > 0L && Points.sqDistWithin(x, vecs(c), deadSq) <= deadSq) {
            dead(c) = true
            marked += 1
          }
          c += 1
        }
      }
    }
    deadMarks.addAndGet(marked)

    val uncovered = Array.tabulate(uncLen)(j => WeightedPoint(vecs(unc(j)), ws(unc(j))))
    Result(centers.toArray, uncovered, uncovered.map(_.weight).sum)
  }

  /** Stale heap heads refreshed per batch, per worker thread. */
  private val RefreshBatch = 8

  /** Relative margin of the dead-candidate test, far above the rounding
    * error of a squared distance.
    */
  private val DeadMargin = 1e-9

  /** Below this squared threshold subnormal terms could exceed the margin,
    * so the dead-candidate rule is off.
    */
  private val MinDeadSq = java.lang.Math.scalb(1.0, -900)

  /** Candidates marked dead since start-up, for tests. */
  private[core] val deadMarks = new java.util.concurrent.atomic.AtomicLong
}
