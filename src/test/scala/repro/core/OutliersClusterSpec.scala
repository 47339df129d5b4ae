package repro.core

import repro.{SparkSpec, TestData}

class OutliersClusterSpec extends SparkSpec {

  private def unit(pts: Array[Array[Double]]): Array[WeightedPoint] =
    pts.map(WeightedPoint(_, 1L))

  test("returns at most k centers") {
    TestData.forSeeds(10) { s =>
      val t = unit(TestData.uniform(40, 3, s))
      val res = OutliersCluster.run(t, 4, 1.0, 0.1)
      assert(res.centers.length <= 4)
    }
  }

  test("terminates with fewer than k centers when everything is covered") {
    val t = unit(TestData.uniform(30, 2, 1L, box = 1.0))
    val res = OutliersCluster.run(t, 10, 100.0, 0.0)
    assert(res.uncovered.isEmpty && res.uncoveredWeight == 0L)
    assert(res.centers.length < 10)
  }

  test("final uncovered points are farther than (3+4eps)r from every center") {
    TestData.forSeeds(10) { s =>
      val t = unit(TestData.uniform(50, 3, s))
      val r = 1.5; val eps = 0.2
      val res = OutliersCluster.run(t, 3, r, eps)
      val lim = (3 + 4 * eps) * r
      res.uncovered.foreach { u =>
        assert(math.sqrt(Points.sqDistToSet(u.vec, res.centers)) > lim - 1e-9)
      }
    }
  }

  test("covered points are within (3+4eps)r of some center") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(50, 3, s)
      val t = unit(pts)
      val r = 2.0; val eps = 0.1
      val res = OutliersCluster.run(t, 3, r, eps)
      val uncSet = res.uncovered.map(_.vec.toSeq).toSet
      val lim = (3 + 4 * eps) * r
      pts.filterNot(p => uncSet(p.toSeq)).foreach { p =>
        assert(math.sqrt(Points.sqDistToSet(p, res.centers)) <= lim + 1e-9)
      }
    }
  }

  test("uncoveredWeight equals the sum of uncovered weights") {
    val t = TestData.uniform(30, 2, 3L).zipWithIndex.map { case (v, i) => WeightedPoint(v, i + 1L) }
    val res = OutliersCluster.run(t, 2, 0.5, 0.0)
    assert(res.uncoveredWeight == res.uncovered.map(_.weight).sum)
  }

  test("Lemma 5 shape: r >= r*_{k,z} implies uncovered weight <= z (unit weights, full set)") {
    TestData.forSeeds(15) { s =>
      val pts = TestData.uniform(12, 2, s)
      val k = 2; val z = 2
      val rStar = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      for (eps <- Seq(0.0, 0.1, 0.5)) {
        val res = OutliersCluster.run(unit(pts), k, rStar + 1e-9, eps)
        assert(res.uncoveredWeight <= z, s"seed=$s eps=$eps")
      }
    }
  }

  test("greedy picks the max-weight ball first") {
    // Heavy point far away vs a light dense group: with tiny r the first
    // chosen center must cover the heaviest single ball.
    val t = Array(
      WeightedPoint(Array(0.0), 100L),
      WeightedPoint(Array(50.0), 1L),
      WeightedPoint(Array(51.0), 1L),
    )
    val res = OutliersCluster.run(t, 1, 0.1, 0.0)
    assert(res.centers.head.head == 0.0)
  }

  test("second center picks the next best ball among uncovered") {
    val t = Array(
      WeightedPoint(Array(0.0), 10L),
      WeightedPoint(Array(100.0), 5L),
      WeightedPoint(Array(200.0), 1L),
    )
    val res = OutliersCluster.run(t, 2, 1.0, 0.0)
    assert(res.centers.map(_.head).toSet == Set(0.0, 100.0))
    assert(res.uncoveredWeight == 1L)
  }

  test("weighted selection differs from unweighted when weights dominate") {
    val dense = (0 until 5).map(i => WeightedPoint(Array(i * 0.1), 1L))
    val heavy = WeightedPoint(Array(100.0), 50L)
    val res = OutliersCluster.run((dense :+ heavy).toArray, 1, 1.0, 0.0)
    assert(res.centers.head.head == 100.0) // weight 50 beats 5 unit points
  }

  test("r = 0 covers only co-located points") {
    val t = Array(
      WeightedPoint(Array(0.0), 1L), WeightedPoint(Array(0.0), 2L),
      WeightedPoint(Array(5.0), 1L))
    val res = OutliersCluster.run(t, 1, 0.0, 0.0)
    assert(res.uncoveredWeight == 1L)
  }

  test("rejects negative radius and eps") {
    val t = unit(TestData.uniform(5, 2, 1L))
    intercept[IllegalArgumentException](OutliersCluster.run(t, 1, -1.0, 0.0))
    intercept[IllegalArgumentException](OutliersCluster.run(t, 1, 1.0, -0.5))
  }

  /** Reference: recompute every candidate's ball weight each iteration. */
  private def naive(t: Array[WeightedPoint], k: Int, r: Double, eps: Double): Seq[Seq[Double]] = {
    val innerSq = { val d = (1 + 2 * eps) * r; d * d }
    val outerSq = { val d = (3 + 4 * eps) * r; d * d }
    var unc = t.toSeq
    val centers = scala.collection.mutable.ArrayBuffer[Array[Double]]()
    while (centers.length < k && unc.nonEmpty) {
      val best = t.minBy { c =>
        (-unc.filter(u => Points.sqDist(c.vec, u.vec) <= innerSq).map(_.weight).sum,
         t.indexOf(c))
      }
      centers += best.vec
      unc = unc.filter(u => Points.sqDist(best.vec, u.vec) > outerSq)
    }
    centers.map(_.toSeq).toSeq
  }

  test("lazy-greedy selection matches a naive argmax reference implementation") {
    TestData.forSeeds(10) { s =>
      val t = TestData.uniform(25, 2, s).zipWithIndex.map { case (v, i) =>
        WeightedPoint(v, (i % 4) + 1L)
      }
      for (k <- Seq(3, t.length)) {
        val mine = OutliersCluster.run(t, k, 1.2, 0.15).centers.map(_.toSeq).toSeq
        assert(mine == naive(t, k, 1.2, 0.15), s"seed=$s k=$k")
      }
    }
    // Clustered inputs, where candidates near a chosen center die, at the
    // benchmark's eps-hat and at CharikarEtAl's eps-hat = 0.
    val before = OutliersCluster.deadMarks.get
    TestData.forSeeds(6) { s =>
      val (pts, _) = TestData.blobs(8, 30, 3, s, sep = 30.0, std = 1.5)
      val t = pts.zipWithIndex.map { case (v, i) => WeightedPoint(v, (i % 3) + 1L) }
      for (eps <- Seq(0.05, 0.0); r <- Seq(1.0, 2.5); k <- Seq(4, t.length)) {
        val mine = OutliersCluster.run(t, k, r, eps).centers.map(_.toSeq).toSeq
        assert(mine == naive(t, k, r, eps), s"seed=$s eps=$eps r=$r k=$k")
      }
    }
    assert(OutliersCluster.deadMarks.get > before, "the dead-candidate rule never fired")
  }

  test("dead-candidate rule stays off where squared thresholds are below 2^-900") {
    // At coordinate scales of 1e-150 and below, squared distances are tiny or
    // subnormal and their rounding could exceed the rule's margin.
    for (scale <- Seq(1e-150, 1e-160, 1e-170)) {
      val (pts, _) = TestData.blobs(8, 30, 3, 2L, sep = 30.0, std = 1.5)
      val t = pts.zipWithIndex.map { case (v, i) => WeightedPoint(v.map(_ * scale), (i % 3) + 1L) }
      val before = OutliersCluster.deadMarks.get
      for (eps <- Seq(0.05, 0.0); k <- Seq(4, t.length)) {
        val mine = OutliersCluster.run(t, k, 2.5 * scale, eps).centers.map(_.toSeq).toSeq
        assert(mine == naive(t, k, 2.5 * scale, eps), s"scale=$scale eps=$eps k=$k")
      }
      assert(OutliersCluster.deadMarks.get == before, s"scale=$scale")
    }
  }

  /** Per-radius brute force: weight of T within squared distance `sq` of each point. */
  private def bruteBallWeights(t: Array[WeightedPoint], sq: Double): Seq[Long] =
    t.toSeq.map(c => t.filter(p => Points.sqDist(c.vec, p.vec) <= sq).map(_.weight).sum)

  private def checkBallWeights(t: Array[WeightedPoint], sqs: Array[Double], clue: String): Unit = {
    val got = OutliersCluster.ballWeights(t, sqs)
    assert(got.length == sqs.length, clue)
    sqs.indices.foreach(j => assert(got(j).toSeq == bruteBallWeights(t, sqs(j)), s"$clue threshold=${sqs(j)}"))
  }

  test("ballWeights at several radii equals the per-radius brute-force sum") {
    TestData.forSeeds(10) { s =>
      val t = TestData.uniform(60, 3, s).zipWithIndex.map { case (v, i) => WeightedPoint(v, (i % 5) + 1L) }
      // Exact pair distances as thresholds probe the `<=` boundary; 0 and a
      // threshold past the diameter probe the ends.
      val pairs = Seq(Points.sqDist(t(0).vec, t(1).vec), Points.sqDist(t(2).vec, t(7).vec))
      val sqs = (Seq(0.0, 1.0, 4.0, 25.0, 1e6) ++ pairs ++ pairs).sorted.toArray
      checkBallWeights(t, sqs, s"seed=$s")
    }
  }

  test("ballWeights on a duplicate-heavy input (5 points x 100 copies)") {
    val base = TestData.uniform(5, 2, 4L)
    val t = Array.tabulate(500)(i => WeightedPoint(base(i % 5), 1L))
    val pairs = for (i <- 0 until 5; j <- i + 1 until 5) yield Points.sqDist(base(i), base(j))
    checkBallWeights(t, (0.0 +: pairs).sorted.toArray, "duplicates")
    assert(OutliersCluster.ballWeights(t, Array(0.0))(0).forall(_ == 100L))
  }

  test("ballWeights with heavy mixed weights") {
    TestData.forSeeds(5) { s =>
      val heavy = Array(1L, 1000000L, 1000000000000L, 7L)
      val t = TestData.uniform(40, 2, s).zipWithIndex.map { case (v, i) => WeightedPoint(v, heavy(i % 4)) }
      checkBallWeights(t, Array(0.25, 2.0, 9.0, 9.0, 200.0), s"seed=$s")
    }
  }

  test("ballWeights equals brute force at |T| in {1, 2, 3, 5, 97}") {
    // Fewer rows than worker threads leaves some workers idle.
    for (n <- Seq(1, 2, 3, 5, 97)) {
      val t = TestData.uniform(n, 4, n.toLong).zipWithIndex.map { case (v, i) => WeightedPoint(v, (i % 7) + 1L) }
      val pair = if (n > 1) Seq(Points.sqDist(t(0).vec, t(n - 1).vec)) else Nil
      checkBallWeights(t, (Seq(0.0, 4.0, 30.0, 1e4) ++ pair).sorted.toArray, s"n=$n")
    }
  }

  test("ballWeights with no thresholds returns no rows; descending thresholds rejected") {
    val t = unit(TestData.uniform(5, 2, 1L))
    assert(OutliersCluster.ballWeights(t, Array.empty).isEmpty)
    intercept[IllegalArgumentException](OutliersCluster.ballWeights(t, Array(4.0, 1.0)))
  }

  test("greedy seeded with ballWeights equals run at every grid radius") {
    TestData.forSeeds(6) { s =>
      val t = TestData.uniform(80, 3, s).zipWithIndex.map { case (v, i) => WeightedPoint(v, (i % 3) + 1L) }
      val (k, z, eps) = (3, 6, 0.1)
      // The radius search's grid over its certified bracket [lo, hi].
      val spread = 3 + 4 * eps
      val delta = eps / spread
      val trace = GMM.coreset(t.map(_.vec), CoresetSpec.FixedSize(k + z), 0L)
      val (lo, hi) = (trace.radiusAfter(k + z - 1) / (2 * spread), trace.radiusAfter(k - 1))
      val bigJ = math.ceil(math.log(hi / lo) / math.log1p(delta)).toInt
      val radii = (0 until bigJ).map(j => lo * math.pow(1 + delta, j)) :+ hi
      val weights = OutliersCluster.ballWeights(t, radii.map(OutliersCluster.innerSq(_, eps)).toArray)
      radii.zipWithIndex.foreach { case (r, j) =>
        val seeded = OutliersCluster.greedy(t, k, r, eps, weights(j))
        val ref = OutliersCluster.run(t, k, r, eps)
        val clue = s"seed=$s j=$j r=$r"
        assert(seeded.centers.map(_.toSeq).toSeq == ref.centers.map(_.toSeq).toSeq, clue)
        assert(seeded.uncovered.map(p => (p.vec.toSeq, p.weight)).toSeq ==
               ref.uncovered.map(p => (p.vec.toSeq, p.weight)).toSeq, clue)
        assert(seeded.uncoveredWeight == ref.uncoveredWeight, clue)
      }
    }
  }

  test("run rejects mixed dimensions") {
    // sqDist reads only its first argument's length, so this must fail loudly.
    val t = Array(WeightedPoint(Array(0.0, 0.0), 1L), WeightedPoint(Array(1.0, 1.0, 5.0), 1L))
    intercept[IllegalArgumentException](OutliersCluster.run(t, 1, 1.0, 0.1))
  }

  test("run rejects non-finite coordinates") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val t = Array(WeightedPoint(Array(0.0, 0.0), 1L), WeightedPoint(Array(1.0, bad), 1L))
      intercept[IllegalArgumentException](OutliersCluster.run(t, 1, 1.0, 0.1))
    }
  }

  test("run rejects weights below 1") {
    for (bad <- Seq(0L, -3L)) {
      val t = Array(WeightedPoint(Array(0.0), 3L), WeightedPoint(Array(1.0), bad))
      intercept[IllegalArgumentException](OutliersCluster.run(t, 1, 1.0, 0.1))
    }
  }

  test("uncovered set shrinks monotonically with r") {
    TestData.forSeeds(5) { s =>
      val t = unit(TestData.uniform(40, 2, s))
      val ws = Seq(0.1, 0.5, 1.0, 2.0, 5.0).map(r =>
        OutliersCluster.run(t, 3, r, 0.0).uncoveredWeight)
      // Not strictly guaranteed by theory, but holds overwhelmingly and the
      // radius search relies on it in practice; flag regressions.
      ws.sliding(2).foreach { case Seq(a, b) => assert(b <= a, s"seed=$s $ws") }
    }
  }
}
