package repro.core

/** Second-round radius search (Sec. 3.2): estimate the minimum r such that
  * OUTLIERSCLUSTER(T, k, r, ε̂) leaves uncovered weight ≤ z, within
  * multiplicative tolerance (1+δ), δ = ε̂/(3+4ε̂).
  *
  * It bisects, in log space, a bracket [lo, hi] that a GMM traversal of T
  * certifies, until hi/lo ≤ 1+δ:
  *  - hi = r_k(T) is feasible (Charikar et al. [16]): the k GMM centers are
  *    points of T whose r_k-balls cover all of T;
  *  - every r < lo = r_{k+z}(T) / (2(3+4ε̂)) is infeasible: the first k+z GMM
  *    centers and the farthest point from them are k+z+1 points pairwise
  *    ≥ r_{k+z}(T) apart, each of weight ≥ 1, and k removal balls of radius
  *    (3+4ε̂)r cannot take in k+1 of them.
  * The same k+z+1 points give r*_{k,z}(S) ≥ r_{k+z}(T)/2 for every S ⊇ T.
  *
  * The bisection runs over the paper's geometric grid r_j = lo·(1+δ)^j,
  * 0 ≤ j < J, with r_J = hi. Each pass computes every candidate's ball
  * weight over T at ⌈√J⌉ evenly spaced grid radii in one pass over the pairs
  * ([[OutliersCluster.ballWeights]]) and bisects among them, seeding each
  * probe's greedy with those weights; two passes finish the search, and each
  * probe is bit-identical to OUTLIERSCLUSTER run at its radius.
  */
object RadiusSearch {

  /** @param probes            OUTLIERSCLUSTER runs made by the search
    * @param lowerBound        every radius below it is infeasible: the larger
    *                          of the certified lo and the largest infeasible
    *                          probe; radius ≤ (1+δ)·lowerBound
    * @param optimumLowerBound r_{k+z}(T)/2 ≤ r*_{k,z}(S) for every S ⊇ T; 0
    *                          when T has at most k+z distinct points
    */
  final case class SearchResult(
      radius: Double,
      clustering: OutliersCluster.Result,
      probes: Int,
      lowerBound: Double,
      optimumLowerBound: Double,
  )

  /** Growths of hi by (1+δ) allowed when floating-point rounding makes the
    * r_k(T) probe infeasible (plausible only at ε̂ = 0).
    */
  private val MaxHiGrowth = 8

  /** Find r̃_min and return the clustering OUTLIERSCLUSTER(T, k, r̃_min, ε̂). */
  def search(t: Array[WeightedPoint], k: Int, z: Long, hatEps: Double, seed: Long = 42L): SearchResult = {
    require(t.nonEmpty, "radius search needs a non-empty coreset")
    require(k >= 1 && z >= 0, s"need k >= 1 and z >= 0, got k=$k z=$z")
    OutliersCluster.validate(t)
    val spread = 3.0 + 4.0 * hatEps
    val delta = if (hatEps > 0) hatEps / spread else 0.01
    var probes = 0
    def seeded(r: Double, initial: Array[Long]): OutliersCluster.Result = {
      probes += 1
      OutliersCluster.greedy(t, k, r, hatEps, initial)
    }
    def probe(r: Double): OutliersCluster.Result =
      seeded(r, OutliersCluster.ballWeights(t, Array(OutliersCluster.innerSq(r, hatEps)))(0))

    val trace = GMM.coreset(t.map(_.vec), CoresetSpec.FixedSize(math.min(k + z, t.length.toLong).toInt), seed)
    val rKZ = if (trace.size >= k + z) trace.radiusAfter(trace.size - 1) else 0.0
    val lo = if (rKZ > 0.0) rKZ / (2.0 * spread) else {
      // Every point of T duplicates one of the trace's distinct points, so
      // below their closest pair over (3+4ε̂) a probe behaves exactly like r = 0.
      val at0 = probe(0.0)
      if (at0.uncoveredWeight <= z) return SearchResult(0.0, at0, probes, 0.0, 0.0)
      val cs = trace.centers
      (for (i <- cs.indices; j <- i + 1 until cs.length) yield Points.dist(cs(i), cs(j))).min / spread
    }

    // r = 0 is feasible when the trace has ≤ k points, so here it has > k.
    val hi = trace.radiusAfter(k - 1)
    // The grid r_j = lo·(1+δ)^j for 0 ≤ j < J, r_J = hi: r_a is infeasible
    // and r_b feasible throughout, so the search ends when b = a+1.
    val size = math.max(1, math.ceil(math.log(hi / lo) / math.log1p(delta)).toInt)
    def radiusAt(j: Int): Double = if (j == size) hi else math.min(lo * math.pow(1.0 + delta, j), hi)
    val step = math.ceil(math.sqrt(size.toDouble)).toInt
    var (a, b) = (0, size)
    var best: OutliersCluster.Result = null
    while (best == null || b - a > 1) {
      // One pass over the pairs serves every probe among `m` evenly spaced
      // grid indices of (a, b); the first pass also serves the r_J probe.
      val gap = b - a
      val m = math.min(gap - 1, step)
      val idx = Array.tabulate(m)(s => a + ((s + 1).toLong * gap / (m + 1)).toInt)
      val radii = (if (best == null) idx :+ size else idx).map(radiusAt)
      val weights = OutliersCluster.ballWeights(t, radii.map(OutliersCluster.innerSq(_, hatEps)))
      if (best == null) {
        best = seeded(hi, weights(m))
        var (below, r) = (hi, hi)
        var growth = 0
        while (best.uncoveredWeight > z) {
          if (growth == MaxHiGrowth)
            throw new IllegalStateException(s"radius search: r_k(T) = $hi grown $MaxHiGrowth times by " +
              s"(1+δ) is still infeasible (uncovered ${best.uncoveredWeight} > z = $z)")
          below = r
          r *= 1.0 + delta
          best = probe(r)
          growth += 1
        }
        if (growth > 0) return SearchResult(r, best, probes, below, rKZ / 2.0)
      }
      // Bisect among positions 0..m+1, where 0 is a and m+1 is b.
      var (l, h) = (0, m + 1)
      while (h - l > 1) {
        val mid = (l + h) >>> 1
        val res = seeded(radii(mid - 1), weights(mid - 1))
        if (res.uncoveredWeight <= z) { best = res; h = mid } else l = mid
      }
      if (l > 0) a = idx(l - 1)
      if (h <= m) b = idx(h - 1)
    }
    SearchResult(radiusAt(b), best, probes, radiusAt(a), rKZ / 2.0)
  }
}
