package repro.eval

import org.apache.spark.sql.Dataset
import repro.core.Points
import repro.data.DataPoint

/** Shared measurement helpers for the experiment harness: radius objectives
  * (local and distributed) and wall-clock timing.
  */
object Evaluate {

  /** r_T(S) on a Spark dataset (k-center objective). */
  def radiusDS(ds: Dataset[DataPoint], centers: Array[Array[Double]]): Double = {
    requireCenters(centers, ds.head(1).headOption.map(_.vec))
    val bc = ds.sparkSession.sparkContext.broadcast(centers)
    math.sqrt(ds.rdd.map(p => Points.sqDistToSet(p.vec, bc.value)).max())
  }

  /** r_{T,Z_T}(S) on a Spark dataset (z farthest points discarded). */
  def radiusWithOutliersDS(ds: Dataset[DataPoint], centers: Array[Array[Double]], z: Int): Double = {
    requireCenters(centers, ds.head(1).headOption.map(_.vec))
    val bc = ds.sparkSession.sparkContext.broadcast(centers)
    val top = ds.rdd.map(p => Points.sqDistToSet(p.vec, bc.value)).top(z + 1)
    if (top.isEmpty) 0.0 else math.sqrt(top.min)
  }

  /** Local r_T(S). */
  def radiusLocal(points: Array[Array[Double]], centers: Array[Array[Double]]): Double = {
    requireCenters(centers, points.headOption)
    Points.radius(points, centers)
  }

  /** Local r_{T,Z_T}(S). */
  def radiusWithOutliersLocal(points: Array[Array[Double]], centers: Array[Array[Double]], z: Int): Double = {
    requireCenters(centers, points.headOption)
    Points.radiusWithOutliers(points, centers, z)
  }

  /** Requires non-empty centers, each with the data's dimension (that of
    * `firstPoint`, evaluated only if there are centers; the first center's
    * when the data is empty) and finite coordinates. Called once per
    * objective: the distance kernels read only the data point's length, so a
    * longer center would silently lose coordinates and a shorter one would
    * throw mid-job.
    */
  private def requireCenters(centers: Array[Array[Double]], firstPoint: => Option[Array[Double]]): Unit = {
    require(centers.nonEmpty, "the objective needs at least one center")
    val dim = firstPoint.fold(centers(0).length)(_.length)
    var i = 0
    while (i < centers.length) { Points.requirePoint(centers(i), dim, "center", i); i += 1 }
  }

  /** Wall-clock a thunk: (result, elapsed millis). */
  def timed[T](f: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1000000)
  }
}
