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
    val dim = t(0).vec.length
    t.iterator.zipWithIndex.foreach { case (p, i) =>
      require(p.vec.length == dim, s"coreset point $i has dimension ${p.vec.length}, expected $dim")
      require(p.vec.forall(java.lang.Double.isFinite), s"coreset point $i has a non-finite coordinate")
      require(p.weight >= 1L, s"coreset point $i has weight ${p.weight} < 1")
    }
    val spread = 3.0 + 4.0 * hatEps
    val delta = if (hatEps > 0) hatEps / spread else 0.01
    var probes = 0
    def probe(r: Double): OutliersCluster.Result = { probes += 1; OutliersCluster.run(t, k, r, hatEps) }

    val trace = GMM.runWhile(t.map(_.vec), math.floorMod(seed, t.length.toLong).toInt)((done, _) => done >= k + z)
    val rKZ = if (trace.size >= k + z) trace.radiusAfter(trace.size - 1) else 0.0
    var lo = rKZ / (2.0 * spread)
    if (rKZ == 0.0) {
      // Every point of T duplicates one of the trace's distinct points, so
      // below their closest pair over (3+4ε̂) a probe behaves exactly like r = 0.
      val at0 = probe(0.0)
      if (at0.uncoveredWeight <= z) return SearchResult(0.0, at0, probes, 0.0, 0.0)
      val cs = trace.centers
      lo = (for (i <- cs.indices; j <- i + 1 until cs.length) yield Points.dist(cs(i), cs(j))).min / spread
    }

    // r = 0 is feasible when the trace has ≤ k points, so here it has > k.
    var hi = trace.radiusAfter(k - 1)
    var best = probe(hi)
    var growth = 0
    while (best.uncoveredWeight > z) {
      if (growth == MaxHiGrowth)
        throw new IllegalStateException(s"radius search: r_k(T) = ${trace.radiusAfter(k - 1)} grown " +
          s"$MaxHiGrowth times by (1+δ) is still infeasible (uncovered ${best.uncoveredWeight} > z = $z)")
      lo = hi
      hi *= 1.0 + delta
      best = probe(hi)
      growth += 1
    }
    while (hi / lo > 1.0 + delta) {
      val mid = math.sqrt(lo * hi)
      val res = probe(mid)
      if (res.uncoveredWeight <= z) { best = res; hi = mid } else lo = mid
    }
    SearchResult(hi, best, probes, lo, rKZ / 2.0)
  }
}
