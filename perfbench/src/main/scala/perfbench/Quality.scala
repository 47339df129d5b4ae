package perfbench

/** The benchmark's own quality yardstick: a lower bound on the optimum and the
  * validity check every solve must pass.
  *
  * The lower bound deliberately uses a farthest-first traversal written here
  * rather than `repro.core.GMM`, so that a change to the program's GMM can
  * never move the denominator of `approx_ratio`.
  */
object Quality {

  /** LB = r_{k+z}(S) / 2, where r_{k+z}(S) is the largest distance from a point
    * of S to the first k+z picks of a farthest-first traversal.
    *
    * Why LB ≤ r*_{k,z}(S): each pick was the farthest point from the earlier
    * picks, and those distances never increase, so the k+z picks plus the
    * farthest remaining point are k+z+1 points pairwise at least r_{k+z}(S)
    * apart. A solution with k centers discards at most z of them, so two of the
    * k+1 left share a center and its radius is at least r_{k+z}(S)/2.
    */
  def lowerBound(points: Array[Array[Double]], k: Int, z: Int): Double =
    farthestFirstRadius(points, k + z) / 2.0

  /** Largest distance from any point to the first `m` picks of a farthest-first
    * traversal starting at `points(0)`; 0 when |S| ≤ m. Chunks of the input
    * are scanned in parallel; the result does not depend on the chunking.
    */
  def farthestFirstRadius(points: Array[Array[Double]], m: Int): Double = {
    val n = points.length
    require(n > 0 && m >= 1, "farthest-first needs points and m >= 1")
    if (n <= m) return 0.0
    val sqd = Array.fill(n)(Double.PositiveInfinity)
    val chunks = math.min(n, 4 * Runtime.getRuntime.availableProcessors())
    val bestSq = new Array[Double](chunks)
    val bestIdx = new Array[Int](chunks)
    var pick = 0
    var radiusSq = 0.0
    var picked = 0
    while (picked < m) {
      val c = points(pick)
      // One pass adds pick `c`, then finds the radius of the picks so far and
      // the farthest point, which is the next pick. Ties go to the lowest index.
      java.util.stream.IntStream.range(0, chunks).parallel().forEach { ch =>
        val lo = (n.toLong * ch / chunks).toInt
        val hi = (n.toLong * (ch + 1) / chunks).toInt
        var worst = -1.0
        var wi = lo
        var i = lo
        while (i < hi) {
          val p = points(i)
          var s = 0.0
          var j = 0
          while (j < p.length) { val d = p(j) - c(j); s += d * d; j += 1 }
          if (s < sqd(i)) sqd(i) = s
          if (sqd(i) > worst) { worst = sqd(i); wi = i }
          i += 1
        }
        bestSq(ch) = worst
        bestIdx(ch) = wi
      }
      radiusSq = -1.0
      var ch = 0
      while (ch < chunks) {
        if (bestSq(ch) > radiusSq) { radiusSq = bestSq(ch); pick = bestIdx(ch) }
        ch += 1
      }
      picked += 1
    }
    math.sqrt(radiusSq)
  }

  /** The objective may exceed LB by at most this factor, 2(3+4ε̂). It is a
    * sanity threshold, not a theorem: r* may exceed LB, but a solution that
    * keeps an injected outlier (at 100·r_MEB) exceeds it by far.
    */
  def maxRatio(hatEps: Double): Double = 2.0 * (3.0 + 4.0 * hatEps)

  /** Why a solve is invalid, or None if it is valid: at most k centers, each
    * with the input's dimension and only finite coordinates, and an objective
    * r_{T,Z_T}(S) within [[maxRatio]] of the lower bound.
    */
  def invalidity(centers: Array[Array[Double]], dim: Int, k: Int, objective: Double,
                 lb: Double, hatEps: Double): Option[String] =
    if (centers.isEmpty || centers.length > k)
      Some(s"${centers.length} centers returned, expected 1 to $k")
    else if (centers.exists(_.length != dim))
      Some(s"a center does not have dimension $dim")
    else if (centers.exists(_.exists(x => !java.lang.Double.isFinite(x))))
      Some("a center has a non-finite coordinate")
    else if (!(objective <= maxRatio(hatEps) * lb))
      Some(f"objective $objective%.6g exceeds ${maxRatio(hatEps)}%.2f x lower bound $lb%.6g")
    else None
}
