package repro.streaming

import repro.core.{Points, WeightedPoint}
import scala.collection.mutable.ArrayBuffer

/** Weighted variant of the doubling algorithm of Charikar et al. [15]
  * (Sec. 4): a 1-pass construction of a τ-point weighted coreset.
  *
  * State: a weighted center set T (|T| ≤ τ) and a lower bound φ ≤ r*_τ(S),
  * maintaining the paper's invariants
  *  (a) |T| ≤ τ,
  *  (b) every two centers are > 4φ apart,
  *  (c) every processed point is within 8φ of its (implicit) proxy,
  *  (d) w_t counts the points whose proxy is t,
  *  (e) φ ≤ r*_τ(S).
  *
  * Initialization buffers the first τ+1 points (weight 1 each), sets φ to
  * half their minimum pairwise distance, then applies the merge rule until
  * invariants (a)–(b) hold — exactly as prescribed in the paper.
  *
  * Update rule: a point within 8φ of T increments its closest center's
  * weight; a farther point becomes a new center (weight 1), and if |T| = τ+1
  * the merge rule (φ ← 2φ; greedily merge centers ≤ 4φ apart, summing
  * weights) repeats until |T| ≤ τ. Doublings that would merge nothing are
  * skipped in one step (see [[growUntilMerge]]), which keeps the φ₀·2^j
  * sequence and the output of doubling one step at a time.
  *
  * Nearest-center scan: the centers are mirrored in `cm` in tiles of 4,
  * coordinate-major within a tile (coordinate c of center i at
  * (i/4)·4·dim + 4c + i mod 4), and scanned tile by tile in insertion order.
  * A tile's four squared distances are accumulated in four independent
  * sums, one coordinate at a time in [[Points.sqDist]]'s order, so they are
  * bit-identical to it while four add chains run at once. The running
  * minimum is taken with strict `<` (first index on ties) until it drops to
  * (8φ)², which in both modes yields the anchor a: the first center within
  * 8φ. When `weighted = false` (the k-center-without-outliers use, where
  * weights are never read) the anchor absorbs the point, as the proxy need
  * not be the closest center. Weighted, an anchor within 2φ·(1−1e-9) is the
  * unique closest center by invariant (b). Otherwise the search walks the
  * centers' neighbour lists: each center keeps the centers within
  * 16φ·(1+1e-6) of it, sorted by (distance, index). The closest center c has
  * d(p, c) ≤ d(p, a) ≤ 8φ, so d(a, c) ≤ d(p, a) + d(p, c) ≤ 2·d(p, a) ≤ 16φ
  * and c is in a's list. The walk scans a's list while
  * d(a, x) ≤ 2·d(p, a)·(1+1e-9). A center closer to p than a becomes the
  * anchor, and the scan restarts on its list with its own, smaller reach
  * (the navigating-nets descent of Krauthgamer and Lee); a center as close
  * as the best but of lower index replaces it. The walk stops at the end of
  * the reach or at a center within 2φ. Distances are [[Points.sqDistWithin]]
  * bounded by the best so far, equal to the tile sums whenever they can win,
  * so the answer is the lowest-index closest center, as a full scan would
  * give. Centers are > 4φ apart, so a list holds 2^O(D) centers in doubling
  * dimension D. Upkeep: a new center is linked to the others with O(|T|)
  * distances, and every merge pass rebuilds the lists from the distances it
  * computes anyway (see [[mergeRule]]), adding only the sorted inserts. The
  * lists are kept only while (2φ)² ≥ dim·2^-1042: below that, the subnormal
  * roundings of a squared distance (at most dim·2^-1074 in all) could
  * exceed the margins, and the weighted scan runs to the 2φ exit instead.
  *
  * Points must have the first point's dimension and finite coordinates.
  */
final class DoublingCoreset(tau: Int, weighted: Boolean = true) {
  require(tau >= 1, s"tau must be >= 1, got $tau")

  private val cap = tau + 1
  private val init = new ArrayBuffer[Array[Double]](cap)
  private var vecs = new ArrayBuffer[Array[Double]]()
  private var ws   = new ArrayBuffer[Long]()
  private var initialized = false
  private var phiV = 0.0
  private var processed = 0L
  private var dim = 0
  /** Merge-rule passes run so far (for tests of the doubling jump). */
  private[streaming] var mergePasses = 0
  /** Tiled mirror of `vecs`: coordinate c of center i at (i/4)·4·dim + 4c + i mod 4. */
  private var cm: Array[Double] = _
  /** Neighbour lists, kept while `useLists`: the first `nbrLen(i)` entries of
    * `nbrIds(i)` are the centers within 16φ·(1+1e-6) of center i, sorted by
    * (squared distance `nbrSq(i)`, index).
    */
  private val nbrIds = Array.fill(cap)(Array.emptyIntArray)
  private val nbrSq  = Array.fill(cap)(Array.emptyDoubleArray)
  private val nbrLen = new Array[Int](cap)
  private var listSq = 0.0
  private var useLists = false
  /** Scratch: the centers before some center that are within the list radius of it. */
  private val nearIds = new Array[Int](cap)
  private val nearSq  = new Array[Double](cap)
  /** Points refined through a neighbour list, and list entries visited (for tests). */
  private[streaming] var refined = 0L
  private[streaming] var listVisits = 0L

  /** Current lower bound φ (0 while still buffering the first τ+1 points). */
  def phi: Double = phiV
  def pointsProcessed: Long = processed
  def size: Int = if (initialized) vecs.length else init.length

  private def minPairwise(ps: scala.collection.IndexedSeq[Array[Double]]): Double = {
    var best = Double.PositiveInfinity
    var i = 0
    while (i < ps.length) {
      var j = i + 1
      while (j < ps.length) {
        val d = Points.sqDist(ps(i), ps(j))
        if (d < best) best = d
        j += 1
      }
      i += 1
    }
    // One root at the end: sqrt is monotone. MaxValue when no squared
    // distance is finite, as the minimum of the roots would give.
    if (best == Double.PositiveInfinity) Double.MaxValue else math.sqrt(best)
  }

  private def mirror(i: Int): Unit = {
    val v = vecs(i)
    val base = (i >> 2) * 4 * dim + (i & 3)
    var c = 0
    while (c < dim) { cm(base + 4 * c) = v(c); c += 1 }
  }

  /** One application of the merge rule: φ ← 2φ, then greedily merge every
    * center within 4φ of an earlier surviving center (transferring weight —
    * conceptually re-pointing the proxy function). Returns the smallest
    * squared distance it compared; when nothing merged, every pair was
    * compared and this is the closest pair's. A surviving center has been
    * compared with every earlier survivor, so the pass also rebuilds the
    * neighbour lists from the distances it computes.
    */
  private def mergeRule(): Double = {
    mergePasses += 1
    phiV *= 2.0
    val sep = 4.0 * phiV
    val sepSq = sep * sep
    val r = 16.0 * phiV * (1 + 1e-6)
    listSq = r * r
    useLists = weighted && { val s = 2.0 * phiV; s * s } >= dim * Math.scalb(1.0, -1042)
    var minSq = Double.PositiveInfinity
    val nv = new ArrayBuffer[Array[Double]](vecs.length)
    val nw = new ArrayBuffer[Long](ws.length)
    var i = 0
    while (i < vecs.length) {
      val v = vecs(i)
      var merged = false
      var near = 0
      var j = 0
      while (!merged && j < nv.length) {
        val d = Points.sqDist(v, nv(j))
        if (d < minSq) minSq = d
        if (d <= sepSq) { nw(j) += ws(i); merged = true }
        else if (useLists && d <= listSq) { nearIds(near) = j; nearSq(near) = d; near += 1 }
        j += 1
      }
      if (!merged) {
        if (useLists) link(nv.length, near)
        nv += v
        nw += ws(i)
      }
      i += 1
    }
    vecs = nv
    ws = nw
    i = 0
    while (i < vecs.length) { mirror(i); i += 1 }
    minSq
  }

  /** The merge rule, repeated at the first doubling φ₀·2^j that merges a
    * pair if one pass merges nothing. A pass at φ merges something exactly
    * when the closest two centers are within 4φ (the later one of them, or
    * an earlier center, is absorbed), so the passes below that φ would only
    * double φ and are skipped. `Math.scalb` is exact, like repeated doubling.
    */
  private def growUntilMerge(): Unit = {
    val n = vecs.length
    val minSq = mergeRule()
    if (vecs.length == n) {
      var j = 1
      while ({ val s = 4.0 * Math.scalb(phiV, j); s * s } < minSq) j += 1
      phiV = Math.scalb(phiV, j - 1)
      mergeRule()
    }
  }

  /** Inserts center j, at squared distance d, into center i's list, after
    * the entries at distance ≤ d; j must exceed every index in the list.
    */
  private def insert(i: Int, j: Int, d: Double): Unit = {
    var n = nbrLen(i)
    if (n == nbrIds(i).length) {
      val m = math.max(8, 2 * n)
      nbrIds(i) = java.util.Arrays.copyOf(nbrIds(i), m)
      nbrSq(i) = java.util.Arrays.copyOf(nbrSq(i), m)
    }
    val ids = nbrIds(i)
    val sqs = nbrSq(i)
    nbrLen(i) = n + 1
    while (n > 0 && sqs(n - 1) > d) { ids(n) = ids(n - 1); sqs(n) = sqs(n - 1); n -= 1 }
    ids(n) = j
    sqs(n) = d
  }

  /** Starts center j's list with the first `near` entries of `nearIds` and
    * `nearSq` (centers before j), and adds j to their lists.
    */
  private def link(j: Int, near: Int): Unit = {
    nbrLen(j) = 0
    var k = 0
    while (k < near) {
      insert(nearIds(k), j, nearSq(k))
      insert(j, nearIds(k), nearSq(k))
      k += 1
    }
  }

  /** Links the newest center with every center before it: O(|T|) distances. */
  private def linkNewest(): Unit = {
    val j = vecs.length - 1
    val v = vecs(j)
    var near = 0
    var i = 0
    while (i < j) {
      val d = Points.sqDistWithin(v, vecs(i), listSq)
      if (d <= listSq) { nearIds(near) = i; nearSq(near) = d; near += 1 }
      i += 1
    }
    link(j, near)
  }

  /** Index of the center that absorbs `p`, or -1 when every center is
    * farther than 8φ: the closest center when weighted, else the first one
    * within 8φ.
    */
  private def absorber(p: Array[Double]): Int = {
    val limSq = { val d = 8.0 * phiV; d * d }
    val stopSq = { val d = 2.0 * phiV; d * d * (1 - 1e-9) }
    val exitSq = if (weighted && !useLists) stopSq else limSq
    val n = vecs.length
    val cm = this.cm
    var best = Double.MaxValue
    var bi = -1
    var b = 0 // first center of the tile
    var o = 0 // offset of the tile in cm
    while (b < n && best > exitSq) {
      var a0 = 0.0; var a1 = 0.0; var a2 = 0.0; var a3 = 0.0
      var c = 0
      while (c < dim) {
        val pc = p(c)
        var d = pc - cm(o); a0 += d * d
        d = pc - cm(o + 1); a1 += d * d
        d = pc - cm(o + 2); a2 += d * d
        d = pc - cm(o + 3); a3 += d * d
        o += 4
        c += 1
      }
      // Lanes at or past n hold stale coordinates and are skipped.
      if (a0 < best) { best = a0; bi = b }
      if (b + 1 < n && best > exitSq && a1 < best) { best = a1; bi = b + 1 }
      if (b + 2 < n && best > exitSq && a2 < best) { best = a2; bi = b + 2 }
      if (b + 3 < n && best > exitSq && a3 < best) { best = a3; bi = b + 3 }
      b += 4
    }
    if (best > limSq) -1
    else if (!useLists || best <= stopSq) bi
    else refine(p, bi, best, stopSq)
  }

  /** The lowest-index closest center to `p`, found by walking the
    * neighbour lists from the anchor `a` at squared distance `da` (see the
    * class comment).
    */
  private def refine(p: Array[Double], a: Int, da: Double, stopSq: Double): Int = {
    var ids = nbrIds(a)
    var sqs = nbrSq(a)
    var len = nbrLen(a)
    var reachSq = { val r = 2.0 * math.sqrt(da) * (1 + 1e-9); r * r }
    var best = da
    var bi = a
    var e = 0
    var visits = 0L
    while (e < len && sqs(e) <= reachSq && best > stopSq) {
      val x = ids(e)
      val d = Points.sqDistWithin(p, vecs(x), best)
      e += 1
      if (d < best) { // x becomes the anchor
        best = d
        bi = x
        ids = nbrIds(x)
        sqs = nbrSq(x)
        len = nbrLen(x)
        reachSq = { val r = 2.0 * math.sqrt(d) * (1 + 1e-9); r * r }
        visits += e
        e = 0
      } else if (d == best && x < bi) bi = x
    }
    refined += 1
    listVisits += visits + e
    bi
  }

  def update(p: Array[Double]): Unit = {
    if (processed == 0) dim = p.length
    Points.requirePoint(p, dim, "stream point", processed + 1)
    processed += 1
    if (!initialized) {
      init += p
      if (init.length == cap) {
        vecs = init.clone()
        ws = ArrayBuffer.fill(init.length)(1L)
        cm = new Array[Double]((cap + 3) / 4 * 4 * dim)
        phiV = minPairwise(init) / 2.0
        if (phiV <= 0) phiV = java.lang.Double.MIN_NORMAL // duplicate points in the prefix
        // Merge at end of initialization, before any further point.
        mergeRule()
        while (vecs.length > tau) growUntilMerge()
        initialized = true
      }
      return
    }
    val bi = absorber(p)
    if (bi >= 0) ws(bi) += 1L
    else {
      vecs += p
      ws += 1L
      mirror(vecs.length - 1)
      if (vecs.length > tau) { while (vecs.length > tau) growUntilMerge() }
      else if (useLists) linkNewest()
    }
  }

  /** The weighted coreset after the pass. Streams shorter than τ+1 points
    * simply return the buffered prefix with unit weights.
    */
  def result(): Array[WeightedPoint] =
    if (initialized) vecs.indices.map(i => WeightedPoint(vecs(i), ws(i))).toArray
    else init.map(WeightedPoint(_, 1L)).toArray
}
