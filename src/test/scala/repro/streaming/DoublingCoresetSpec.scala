package repro.streaming

import repro.core.{ExactKCenter, Points, WeightedPoint}
import repro.data.Datasets
import repro.{SparkSpec, TestData}
import scala.collection.mutable.ArrayBuffer

class DoublingCoresetSpec extends SparkSpec {
  import DoublingCoresetSpec.{RefineCases, ScalarDoubling}

  /** Streams `pts` through the tiled-scan coreset and the scalar reference
    * and asserts identical centers (in order), weights, φ and point counts.
    * Returns φ after initialization and at the end.
    */
  private def assertMatchesReference(pts: Array[Array[Double]], tau: Int, weighted: Boolean,
                                     what: String): (Double, Double) = {
    val dc = new DoublingCoreset(tau, weighted)
    val ref = new ScalarDoubling(tau, weighted)
    var phiInit = 0.0
    pts.indices.foreach { i =>
      dc.update(pts(i)); ref.update(pts(i))
      if (i == tau) phiInit = ref.phi
    }
    val (got, want) = (dc.result(), ref.result())
    assert(got.length == want.length, what)
    got.indices.foreach { i =>
      assert(got(i).vec.sameElements(want(i).vec), s"$what: center $i")
      assert(got(i).weight == want(i).weight, s"$what: weight of center $i")
    }
    assert(dc.phi == ref.phi, what)
    assert(dc.pointsProcessed == ref.pointsProcessed, what)
    (phiInit, ref.phi)
  }

  test("tiled scan equals the scalar reference scan (uniform 2-d, one partial tile to many tiles)") {
    for (weighted <- Seq(true, false); tau <- Seq(1, 2, 3, 5, 20, 63, 64, 150); s <- Seq(1L, 2L)) {
      val what = s"weighted=$weighted tau=$tau seed=$s"
      val (phi0, phi) = assertMatchesReference(TestData.uniform(3000, 2, s), tau, weighted, what)
      // At tau <= 3 (one partial tile) the initial 8*phi already covers the box.
      if (tau >= 5) assert(phi > phi0, s"$what: merges happen after initialization")
    }
  }

  test("tiled scan equals the scalar reference scan (higgsLike 7-d, wikiLike 50-d, merges forced)") {
    for (weighted <- Seq(true, false)) {
      for ((spec, n, tau) <- Seq((Datasets.higgsLike, 20000, 200), (Datasets.higgsLike, 6000, 40),
                                 (Datasets.wikiLike, 6000, 880))) {
        val pts = Datasets.localPoints(spec, n, 5L)
        val what = s"${spec.name} tau=$tau weighted=$weighted"
        val (phi0, phi) = assertMatchesReference(pts, tau, weighted, what)
        assert(phi > phi0, s"$what: merges happen after initialization")
      }
    }
  }

  test("tiled scan equals the scalar reference scan on duplicate-heavy and tied streams") {
    val rnd = new scala.util.Random(3L)
    val base = TestData.uniform(40, 3, 9L)
    // 90 % repeats of 40 distinct points, 10 % fresh points.
    val pts = Array.fill(4000)(if (rnd.nextDouble() < 0.9) base(rnd.nextInt(40)) else Array.fill(3)(rnd.nextDouble() * 10))
    for (weighted <- Seq(true, false); tau <- Seq(8, 70))
      assertMatchesReference(pts, tau, weighted, s"weighted=$weighted tau=$tau")
    // Integer lattice points: many exactly tied distances.
    val lattice = Array.fill(4000)(Array.fill(2)(rnd.nextInt(30).toDouble))
    for (weighted <- Seq(true, false); tau <- Seq(20, 70))
      assertMatchesReference(lattice, tau, weighted, s"lattice weighted=$weighted tau=$tau")
    val dupPrefix = Array.fill(100)(Array(1.0, 2.0, 3.0)) ++ pts
    for (weighted <- Seq(true, false))
      assertMatchesReference(dupPrefix, 30, weighted, s"duplicate prefix weighted=$weighted")
  }

  /** Streams `pts` through the weighted coreset and the scalar reference,
    * asserting identical centers, weights and φ after every point, and
    * classifies the absorbed points as in [[RefineCases]].
    */
  private def walkAgainstReference(pts: Array[Array[Double]], tau: Int, what: String): (RefineCases, DoublingCoreset) = {
    val dc = new DoublingCoreset(tau)
    val ref = new ScalarDoubling(tau, weighted = true)
    var (away, ties, linked, afterMerge) = (0, 0, 0, 0)
    var phiInit = 0.0
    val fresh = ArrayBuffer[Array[Double]]()
    pts.indices.foreach { t =>
      val p = pts(t)
      val before = dc.result().map(_.vec)
      val phi = dc.phi
      dc.update(p); ref.update(p)
      val (got, want) = (dc.result(), ref.result())
      assert(got.length == want.length && dc.phi == ref.phi, s"$what: point $t")
      got.indices.foreach { i =>
        assert(got(i).vec eq want(i).vec, s"$what: point $t, center $i")
        assert(got(i).weight == want(i).weight, s"$what: point $t, weight of center $i")
      }
      if (phi == 0.0) phiInit = dc.phi
      else if (dc.phi != phi) fresh.clear()
      else if (got.length > before.length) fresh += p
      else {
        val sq = before.map(Points.sqDist(p, _))
        val anchor = sq.indexWhere(_ <= { val d = 8 * phi; d * d })
        val closest = Points.closestIndex(p, before)
        if (closest != anchor) {
          away += 1
          if (sq.count(_ == sq(closest)) > 1) ties += 1
          if (fresh.exists(_ eq before(closest))) linked += 1
          if (phi > phiInit) afterMerge += 1
        }
      }
    }
    (RefineCases(away, ties, linked, afterMerge), dc)
  }

  test("neighbour-list refine equals the scalar reference after every point (ties, linked centers, rebuilds)") {
    val rnd = new scala.util.Random(11L)
    // Integer lattices: squared distances are exact integers, so ties abound.
    for ((dim, side, tau) <- Seq((2, 40, 30), (2, 60, 70), (3, 12, 60))) {
      val pts = Array.fill(6000)(Array.fill(dim)(rnd.nextInt(side).toDouble))
      val what = s"lattice dim=$dim side=$side tau=$tau"
      val (cases, _) = walkAgainstReference(pts, tau, what)
      assert(cases.ties > 0 && cases.linked > 0 && cases.afterMerge > 0, s"$what: $cases")
    }
    val (cases, _) = walkAgainstReference(Datasets.localPoints(Datasets.higgsLike, 8000, 7L), 150, "higgsLike")
    assert(cases.linked > 0 && cases.afterMerge > 0, s"higgsLike: $cases")
  }

  test("neighbour-list refine equals the scalar reference (50-d, coordinate scales 1e-150 to 1e150)") {
    val (wiki, dcWiki) = walkAgainstReference(Datasets.localPoints(Datasets.wikiLike, 4000, 3L), 200, "wikiLike")
    assert(wiki.away > 0 && dcWiki.refined > 0, s"wikiLike: $wiki")
    val higgs = Datasets.localPoints(Datasets.higgsLike, 5000, 4L)
    for (scale <- Seq(1e-150, 1e150)) {
      val (cases, dc) = walkAgainstReference(higgs.map(_.map(_ * scale)), 120, s"scale $scale")
      assert(cases.away > 0 && dc.refined > 0, s"scale $scale: $cases")
    }
    // At 1e-160 squared distances are subnormal, too coarse for the walk's
    // margins (through the lists this lattice goes to a wrong center): the
    // lists stay off and the weighted scan runs to the 2φ exit.
    val rnd = new scala.util.Random(1L)
    val lattice = Array.fill(3000)(Array.fill(2)(rnd.nextInt(50) * 1e-160))
    for ((pts, tau, what) <- Seq((lattice, 30, "lattice"), (higgs.map(_.map(_ * 1e-160)), 120, "higgsLike"))) {
      val (_, tiny) = walkAgainstReference(pts, tau, s"$what at scale 1e-160")
      assert(tiny.refined == 0, what)
    }
  }

  test("lists stay off while phi is near Double.MIN_NORMAL and start after the first merge (duplicate-heavy prefix)") {
    val tau = 40
    val pts = Array.fill(tau + 1)(Array(3.0, 1.0, 2.0)) ++ Datasets.localPoints(Datasets.higgsLike, 5000, 9L).map(_.take(3))
    val dc = new DoublingCoreset(tau)
    pts.take(tau + 1).foreach(dc.update)
    // φ₀ = MIN_NORMAL, doubled once by the merge that ends initialization.
    assert(dc.phi == 2 * java.lang.Double.MIN_NORMAL)
    var t = tau + 1
    while (dc.phi < 1e-300) { dc.update(pts(t)); t += 1 }
    assert(dc.refined == 0 && t > tau + 2)
    val (cases, after) = walkAgainstReference(pts, tau, "duplicate prefix")
    assert(after.phi > 1e-3 && after.refined > 0 && cases.afterMerge > 0, s"$cases")
  }

  test("the refine visits fewer than half the centers per refined point (clustered 7-d stream)") {
    val dc = new DoublingCoreset(440)
    val pts = Datasets.localPoints(Datasets.higgsLike, 60000, 12L)
    pts.foreach(dc.update)
    assert(dc.refined > pts.length / 4, s"${dc.refined} refined")
    val perPoint = dc.listVisits.toDouble / dc.refined
    assert(perPoint < dc.size / 2.0, s"$perPoint list entries per refined point, ${dc.size} centers")
  }

  test("every absorbed point goes to its brute-force closest center") {
    for ((pts, tau) <- Seq((Datasets.localPoints(Datasets.higgsLike, 4000, 2L), 100),
                           (TestData.uniform(3000, 2, 4L), 40))) {
      val dc = new DoublingCoreset(tau)
      pts.take(tau + 1).foreach(dc.update)
      var absorbed = 0
      pts.drop(tau + 1).foreach { p =>
        val before = dc.result()
        val phi = dc.phi
        dc.update(p)
        val after = dc.result()
        if (dc.phi == phi && after.length == before.length) {
          val centers = before.map(_.vec)
          val grown = before.indices.filter(i => after(i).weight != before(i).weight)
          assert(grown == Seq(Points.closestIndex(p, centers)))
          assert(after(grown.head).weight == before(grown.head).weight + 1)
          assert(Points.sqDistToSet(p, centers) <= { val d = 8 * phi; d * d })
          absorbed += 1
        }
      }
      assert(absorbed > pts.length / 2)
    }
  }

  test("a duplicate-heavy prefix jumps straight to the first doubling that merges") {
    // 881 copies of one point leave phi at Double.MIN_NORMAL after
    // initialization; the next overflow then needs ~1000 doublings, all but
    // the last merging nothing.
    val tau = 880
    val pts = Array.fill(tau + 1)(Array(0.5, 0.5)) ++ TestData.uniform(2500, 2, 8L)
    val ref = new ScalarDoubling(tau, weighted = true)
    pts.foreach(ref.update)
    val dc = new DoublingCoreset(tau)
    pts.foreach(dc.update)
    assert(dc.result().map(_.vec.toSeq).toSeq == ref.result().map(_.vec.toSeq).toSeq)
    assert(dc.result().map(_.weight).toSeq == ref.result().map(_.weight).toSeq)
    assert(dc.phi == ref.phi && dc.phi > 1e-3)
    // Both merge in the same passes; the jump adds one pass that merges
    // nothing where step-by-step doubling ran about a thousand.
    assert(ref.passes > 1000)
    assert(dc.mergePasses <= ref.mergingPasses + 1, s"${dc.mergePasses} passes, ${ref.mergingPasses} merging")
  }

  test("rejects points of another dimension or with non-finite coordinates") {
    for (after <- Seq(2, 20)) { // while buffering the prefix, and after initialization
      val dc = new DoublingCoreset(5)
      TestData.uniform(after, 3, 1L).foreach(dc.update)
      for (bad <- Seq(Array(1.0, 2.0), Array(1.0, 2.0, 3.0, 4.0), Array(1.0, Double.NaN, 3.0),
                      Array(Double.PositiveInfinity, 2.0, 3.0), Array(1.0, 2.0, Double.NegativeInfinity)))
        intercept[IllegalArgumentException](dc.update(bad))
      assert(dc.pointsProcessed == after)
      dc.update(Array(1.0, 2.0, 3.0))
      assert(dc.result().map(_.weight).sum == after + 1L)
    }
  }

  test("size never exceeds tau (invariant a)") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(500, 3, s)
      val dc = new DoublingCoreset(12)
      pts.foreach { p => dc.update(p); assert(dc.size <= 13) } // +1 transiently impossible post-update
      assert(dc.result().length <= 12)
    }
  }

  test("weights sum to the number of processed points (invariant d)") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(400, 2, s)
      val dc = new DoublingCoreset(9)
      pts.foreach(dc.update)
      assert(dc.result().map(_.weight).sum == 400L)
      assert(dc.pointsProcessed == 400L)
    }
  }

  test("centers are pairwise > 4*phi apart (invariant b)") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(600, 3, s)
      val dc = new DoublingCoreset(10)
      pts.foreach(dc.update)
      val t = dc.result().map(_.vec)
      val phi = dc.phi
      for (i <- t.indices; j <- (i + 1) until t.length)
        assert(Points.dist(t(i), t(j)) > 4 * phi - 1e-9, s"seed=$s pair ($i,$j)")
    }
  }

  test("every processed point is within 8*phi of the coreset (invariant c corollary)") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(500, 2, s)
      val dc = new DoublingCoreset(15)
      pts.foreach(dc.update)
      val t = dc.result().map(_.vec)
      pts.foreach(p => assert(math.sqrt(Points.sqDistToSet(p, t)) <= 8 * dc.phi + 1e-9))
    }
  }

  test("phi lower-bounds 2*r*_tau(S) (invariant e, with the init doubling slack)") {
    // The paper's prescribed end-of-initialization merge doubles phi from
    // d_min/2 to d_min, which is only guaranteed <= 2*r*_tau of the prefix;
    // later merges preserve that factor. Check the honest bound.
    TestData.forSeeds(8) { s =>
      val pts = TestData.uniform(12, 2, s)
      val tau = 3
      val dc = new DoublingCoreset(tau)
      pts.foreach(dc.update)
      if (dc.phi > 0)
        assert(dc.phi <= 2 * ExactKCenter.optimalRadiusWithOutliers(pts, tau, 0) + 1e-9, s"seed=$s")
    }
  }

  test("short streams (< tau+1 points) return the points verbatim") {
    // n = tau is the last length before the (tau+1)-th point starts initialization.
    for (n <- Seq(5, 10)) {
      val pts = TestData.uniform(n, 2, 1L)
      val dc = new DoublingCoreset(10)
      pts.foreach(dc.update)
      val res = dc.result()
      assert(res.length == n && res.forall(_.weight == 1L), s"n=$n")
      assert(res.map(_.vec.toSeq).toSeq == pts.map(_.toSeq).toSeq, s"n=$n")
    }
  }

  test("handles duplicate points in the initial prefix") {
    val p = Array(1.0, 1.0)
    val dc = new DoublingCoreset(3)
    (0 until 10).foreach(_ => dc.update(p.clone()))
    val res = dc.result()
    assert(res.map(_.weight).sum == 10L)
    assert(res.length == 1)
  }

  test("stream of two tight blobs collapses to two heavy centers") {
    val (pts, _) = TestData.blobs(2, 100, 2, 4L, sep = 1e6, std = 1e-3)
    val dc = new DoublingCoreset(4)
    pts.foreach(dc.update)
    val res = dc.result()
    assert(res.length <= 4)
    assert(res.map(_.weight).sum == 200L)
    // The two blobs cannot merge: separation dwarfs any reachable phi here.
    val big = res.filter(_.weight >= 50L)
    assert(big.length == 2, res.map(_.weight).mkString(","))
  }

  test("coreset radius is within 8*phi of optimum scale (quality sanity)") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(1000, 3, s)
      val tau = 30
      val dc = new DoublingCoreset(tau)
      pts.foreach(dc.update)
      val r = Points.radiusWithOutliers(pts, dc.result().map(_.vec), 0)
      assert(r <= 8 * dc.phi + 1e-9)
    }
  }

  test("order matters but invariants hold under any order") {
    val pts = TestData.uniform(300, 2, 6L)
    for (shuffleSeed <- Seq(1L, 2L, 3L)) {
      val stream = new scala.util.Random(shuffleSeed).shuffle(pts.toSeq).toArray
      val dc = new DoublingCoreset(8)
      stream.foreach(dc.update)
      assert(dc.result().length <= 8)
      assert(dc.result().map(_.weight).sum == 300L)
    }
  }

  test("rejects tau < 1") {
    intercept[IllegalArgumentException](new DoublingCoreset(0))
  }
}

object DoublingCoresetSpec {

  /** Absorbed points whose lowest-index closest center is not their anchor
    * (the first center within 8φ), so the neighbour-list walk had to find
    * it; and among those, the ones with a tie for closest, the ones whose
    * center was linked after the last change of φ, and the ones after a merge
    * event mid-stream (so in lists rebuilt after a merge).
    */
  final case class RefineCases(away: Int, ties: Int, linked: Int, afterMerge: Int)

  /** Reference: the doubling coreset with a scalar nearest-center scan over
    * the centers and one-step-at-a-time doubling.
    */
  final class ScalarDoubling(tau: Int, weighted: Boolean) {
    private val init = new ArrayBuffer[Array[Double]](tau + 1)
    private var vecs = new ArrayBuffer[Array[Double]]()
    private var ws   = new ArrayBuffer[Long]()
    private var initialized = false
    private var phiV = 0.0
    private var processed = 0L

    def phi: Double = phiV
    def pointsProcessed: Long = processed
    /** Merge-rule passes run, and those of them that merged a pair. */
    var passes = 0
    var mergingPasses = 0

    private def mergeRule(): Unit = {
      passes += 1
      phiV *= 2.0
      val sepSq = { val s = 4.0 * phiV; s * s }
      val nv = new ArrayBuffer[Array[Double]]()
      val nw = new ArrayBuffer[Long]()
      var i = 0
      while (i < vecs.length) {
        var j = 0
        while (j < nv.length && Points.sqDist(vecs(i), nv(j)) > sepSq) j += 1
        if (j < nv.length) nw(j) += ws(i) else { nv += vecs(i); nw += ws(i) }
        i += 1
      }
      if (nv.length < vecs.length) mergingPasses += 1
      vecs = nv
      ws = nw
    }

    def update(p: Array[Double]): Unit = {
      processed += 1
      if (!initialized) {
        init += p
        if (init.length == tau + 1) {
          vecs = init.clone()
          ws = ArrayBuffer.fill(init.length)(1L)
          phiV = (for (i <- init.indices; j <- (i + 1) until init.length) yield Points.dist(init(i), init(j))).min / 2.0
          if (phiV <= 0) phiV = java.lang.Double.MIN_NORMAL
          mergeRule()
          while (vecs.length > tau) mergeRule()
          initialized = true
        }
        return
      }
      val limSq = { val d = 8.0 * phiV; d * d }
      var best = Double.MaxValue
      var bi = -1
      var i = 0
      while (i < vecs.length && (weighted || best > limSq)) {
        val d = Points.sqDist(p, vecs(i))
        if (d < best) { best = d; bi = i }
        i += 1
      }
      if (best <= limSq) ws(bi) += 1L
      else {
        vecs += p
        ws += 1L
        while (vecs.length > tau) mergeRule()
      }
    }

    def result(): Array[WeightedPoint] =
      if (initialized) vecs.indices.map(i => WeightedPoint(vecs(i), ws(i))).toArray
      else init.map(WeightedPoint(_, 1L)).toArray
  }
}
