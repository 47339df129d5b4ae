package repro.core

/** Metric-space kernels shared by every algorithm in the reproduction.
  *
  * Points are dense `Array[Double]` vectors under the Euclidean distance, as
  * in the paper's experiments (Higgs/Power are 7-dimensional, Wiki is
  * 50-dimensional). All inner loops work on squared distances to avoid
  * `sqrt` until a radius is actually reported.
  */
object Points {

  /** Squared Euclidean distance between two equal-length vectors. */
  def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    val n = a.length
    while (i < n) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** [[sqDist]] with an early exit: the terms are added in [[sqDist]]'s order,
    * eight coordinates to a block, and after each block the partial sum is
    * returned once it exceeds `limit`. Partial sums of non-negative terms
    * never decrease in IEEE arithmetic, so the result is > `limit` exactly
    * when `sqDist(a, b)` is, and it equals `sqDist(a, b)` otherwise. Callers
    * that only compare a squared distance with a known bound use it.
    */
  def sqDistWithin(a: Array[Double], b: Array[Double], limit: Double): Double = {
    val n = a.length
    var s = 0.0
    var i = 0
    // Unrolled by hand: a nested loop over the blocks measured slower.
    while (i + 8 <= n) {
      val d0 = a(i) - b(i); s += d0 * d0
      val d1 = a(i + 1) - b(i + 1); s += d1 * d1
      val d2 = a(i + 2) - b(i + 2); s += d2 * d2
      val d3 = a(i + 3) - b(i + 3); s += d3 * d3
      val d4 = a(i + 4) - b(i + 4); s += d4 * d4
      val d5 = a(i + 5) - b(i + 5); s += d5 * d5
      val d6 = a(i + 6) - b(i + 6); s += d6 * d6
      val d7 = a(i + 7) - b(i + 7); s += d7 * d7
      if (s > limit) return s
      i += 8
    }
    while (i < n) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** Requires every vector to have the first one's dimension and finite
    * coordinates: [[sqDist]] reads only its first argument's length, and a
    * NaN distance compares false with everything. `what` names the input in
    * the error message.
    */
  def requireUniform(points: Array[Array[Double]], what: String): Unit = {
    val dim = points(0).length
    val name = s"$what point"
    var i = 0
    while (i < points.length) { requirePoint(points(i), dim, name, i); i += 1 }
  }

  /** Requires `v` to have dimension `dim` and finite coordinates. The error
    * message calls it "`what` `index`"; it is built only on failure, so the
    * check allocates nothing on a hot path.
    */
  def requirePoint(v: Array[Double], dim: Int, what: String, index: Long): Unit = {
    if (v.length != dim)
      throw new IllegalArgumentException(
        s"requirement failed: $what $index has dimension ${v.length}, expected $dim")
    var c = 0
    while (c < dim && java.lang.Double.isFinite(v(c))) c += 1
    if (c < dim)
      throw new IllegalArgumentException(s"requirement failed: $what $index has a non-finite coordinate")
  }

  /** Euclidean distance between two equal-length vectors. */
  def dist(a: Array[Double], b: Array[Double]): Double = math.sqrt(sqDist(a, b))

  /** Squared distance from a point to its closest center: d(s, X)² = min_x d(s,x)². */
  def sqDistToSet(p: Array[Double], centers: Array[Array[Double]]): Double = {
    var best = Double.MaxValue
    var i = 0
    while (i < centers.length) {
      val d = sqDistWithin(p, centers(i), best)
      if (d < best) best = d
      i += 1
    }
    best
  }

  /** Index of the closest center to `p` (first on ties); -1 on empty set. */
  def closestIndex(p: Array[Double], centers: Array[Array[Double]]): Int = {
    var best = Double.MaxValue
    var bi   = -1
    var i = 0
    while (i < centers.length) {
      val d = sqDistWithin(p, centers(i), best)
      if (d < best) { best = d; bi = i }
      i += 1
    }
    bi
  }

  /** Radius of `points` w.r.t. `t` after discarding the `z` ≥ 0 farthest
    * points: the objective r_{T,Z_T}(S) of k-center with z outliers, and at
    * z = 0 the k-center radius r_T(S) = max_s d(s, T). 0 on no points.
    */
  def radiusWithOutliers(points: Iterable[Array[Double]], t: Array[Array[Double]], z: Int): Double = {
    require(z >= 0, s"need z >= 0 outliers, got z=$z")
    // Keep the z+1 largest squared distances in a min-heap; the smallest of
    // those survivors is the radius once the z largest are discarded.
    val heap = new java.util.PriorityQueue[java.lang.Double](math.max(1, z + 1))
    val it = points.iterator
    while (it.hasNext) {
      val d = sqDistToSet(it.next(), t)
      if (heap.size < z + 1) heap.add(d)
      else if (d > heap.peek()) { heap.poll(); heap.add(d) }
    }
    if (heap.isEmpty) 0.0 else math.sqrt(heap.peek())
  }
}

/** A coreset point: the vector plus the number of input points it proxies.
  * Weight 1 coresets degenerate to plain point sets (k-center without
  * outliers never reads the weight).
  */
final case class WeightedPoint(vec: Array[Double], weight: Long) extends Serializable
