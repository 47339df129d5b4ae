package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ExactKCenter, GMM, Points, SeqCoresetOutliers}
import repro.data.Datasets
import Params._

class QualitySpec extends AnyFunSuite {

  test("the lower bound never exceeds the exact optimum r*_{k,z} on tiny inputs") {
    for (seed <- 1 to 30; k <- 1 to 3; z <- 0 to 2) {
      val rnd = new scala.util.Random(seed)
      val n = 6 + rnd.nextInt(5)
      val pts = Array.fill(n)(Array.fill(2)(rnd.nextGaussian() * (1 + rnd.nextInt(4))))
      val lb = Quality.lowerBound(pts, k, z)
      val opt = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      assert(lb <= opt + 1e-12, s"seed=$seed k=$k z=$z n=$n: LB $lb > r* $opt")
      if (n > k + z) assert(lb > 0, s"seed=$seed k=$k z=$z: LB is 0 on distinct points")
    }
  }

  test("the parallel farthest-first radius agrees with a sequential traversal") {
    val rnd = new scala.util.Random(3)
    val pts = Array.fill(5000)(Array.fill(3)(rnd.nextDouble()))
    for (m <- Seq(1, 2, 17, 220))
      assert(Quality.farthestFirstRadius(pts, m) == GMM.coresetBySize(pts, m, 0).radiusAfter(m - 1), s"m=$m")
  }

  // Without the uniform background stragglers, so that the lower bound is set
  // by the macro-clusters. The 2(3+4ε̂)·LB threshold is loose: here it rejects
  // centers drawn from the most outlying macro-cluster, but not from a central
  // one, and with the stragglers the workloads' data carries it rejects
  // neither; there `approx_ratio` is what shows such a loss of quality.
  private val spec = Datasets.higgsLike.copy(noiseFrac = 0.0)
  private val seed = 7L
  private val (points, _) = Datasets.withOutliers(Datasets.localPoints(spec, 3000, seed), Z, seed)
  private val lb = Quality.lowerBound(points, K, Z)

  private def verdict(centers: Array[Array[Double]]) =
    Quality.invalidity(centers, spec.dim, K, Points.radiusWithOutliers(points.toSeq, centers, Z), lb, HatEps)

  test("the check accepts the program's own solve") {
    val solve = SeqCoresetOutliers.runFixedSize(points, K, Z, K + Z, HatEps, seed)
    assert(verdict(solve.centers).isEmpty)
  }

  test("the check rejects k centers drawn from the most outlying macro-cluster") {
    val macros = Datasets.mixture(spec, seed).superCenters
    val macroCenter = macros.maxBy(m => macros.map(Points.dist(m, _)).sum)
    val centers = points.sortBy(p => Points.sqDist(p, macroCenter)).take(K)
    val why = verdict(centers)
    assert(why.exists(_.startsWith("objective")), why)
  }

  test("the check rejects an answer that keeps an injected outlier") {
    val good = SeqCoresetOutliers.runFixedSize(points, K, Z, K + Z, HatEps, seed).centers
    val keepsOne = Points.radiusWithOutliers(points.toSeq, good, Z - 1)
    assert(Quality.invalidity(good, spec.dim, K, keepsOne, lb, HatEps).exists(_.startsWith("objective")))
  }

  test("the check rejects too many centers, a wrong dimension and a non-finite coordinate") {
    val good = SeqCoresetOutliers.runFixedSize(points, K, Z, K + Z, HatEps, seed).centers
    assert(Quality.invalidity(good ++ good, spec.dim, K, lb, lb, HatEps).isDefined)
    assert(Quality.invalidity(Array.empty, spec.dim, K, lb, lb, HatEps).isDefined)
    assert(Quality.invalidity(good.map(_.take(3)), spec.dim, K, lb, lb, HatEps).isDefined)
    assert(Quality.invalidity(good.updated(0, Array.fill(spec.dim)(Double.NaN)), spec.dim, K, lb, lb, HatEps).isDefined)
    assert(Quality.invalidity(good, spec.dim, K, lb, lb, HatEps).isEmpty)
  }
}
