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
  * the exit bound. Weighted, the bound is 2φ: by invariant (b) every other
  * center is then more than 2φ away, so that center is the unique closest.
  * When `weighted = false` (the k-center-without-outliers use, where weights
  * are never read) the bound is 8φ, so the scan stops at the first center
  * within 8φ — the same center set, as the proxy need not be the closest
  * center.
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

  /** Current lower bound φ (0 while still buffering the first τ+1 points). */
  def phi: Double = phiV
  def pointsProcessed: Long = processed
  def size: Int = if (initialized) vecs.length else init.length

  private def minPairwise(ps: scala.collection.IndexedSeq[Array[Double]]): Double = {
    var best = Double.MaxValue
    var i = 0
    while (i < ps.length) {
      var j = i + 1
      while (j < ps.length) {
        val d = Points.dist(ps(i), ps(j))
        if (d < best) best = d
        j += 1
      }
      i += 1
    }
    best
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
    * compared and this is the closest pair's.
    */
  private def mergeRule(): Double = {
    mergePasses += 1
    phiV *= 2.0
    val sep = 4.0 * phiV
    val sepSq = sep * sep
    var minSq = Double.PositiveInfinity
    val nv = new ArrayBuffer[Array[Double]](vecs.length)
    val nw = new ArrayBuffer[Long](ws.length)
    var i = 0
    while (i < vecs.length) {
      val v = vecs(i)
      var merged = false
      var j = 0
      while (!merged && j < nv.length) {
        val d = Points.sqDist(v, nv(j))
        if (d < minSq) minSq = d
        if (d <= sepSq) { nw(j) += ws(i); merged = true }
        j += 1
      }
      if (!merged) { nv += v; nw += ws(i) }
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

  /** Index of the center that absorbs `p`, or -1 when every center is
    * farther than 8φ: the closest center when weighted, else the first one
    * within 8φ.
    */
  private def absorber(p: Array[Double]): Int = {
    val limSq = { val d = 8.0 * phiV; d * d }
    val stopSq = if (weighted) { val d = 2.0 * phiV; d * d * (1 - 1e-9) } else limSq
    val n = vecs.length
    val cm = this.cm
    var best = Double.MaxValue
    var bi = -1
    var b = 0 // first center of the tile
    var o = 0 // offset of the tile in cm
    while (b < n && best > stopSq) {
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
      if (b + 1 < n && best > stopSq && a1 < best) { best = a1; bi = b + 1 }
      if (b + 2 < n && best > stopSq && a2 < best) { best = a2; bi = b + 2 }
      if (b + 3 < n && best > stopSq && a3 < best) { best = a3; bi = b + 3 }
      b += 4
    }
    if (best <= limSq) bi else -1
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
      while (vecs.length > tau) growUntilMerge()
    }
  }

  /** The weighted coreset after the pass. Streams shorter than τ+1 points
    * simply return the buffered prefix with unit weights.
    */
  def result(): Array[WeightedPoint] =
    if (initialized) vecs.indices.map(i => WeightedPoint(vecs(i), ws(i))).toArray
    else init.map(WeightedPoint(_, 1L)).toArray
}
