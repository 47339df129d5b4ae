package repro.eval

import org.apache.spark.sql.Dataset
import repro.core.Points
import repro.data.DataPoint

/** Shared measurement helpers for the experiment harness: the one radius
  * objective r_{T,Z_T}(S), local and distributed, with z = 0 for plain
  * k-center, and wall-clock timing.
  */
object Evaluate {

  /** r_{T,Z_T}(S) on a Spark dataset (z ≥ 0 farthest points discarded; z = 0
    * is the k-center radius r_T(S)); 0 on an empty dataset, as locally.
    */
  def radiusWithOutliersDS(ds: Dataset[DataPoint], centers: Array[Array[Double]], z: Int): Double = {
    require(z >= 0, s"need z >= 0 outliers, got z=$z")
    requireCenters(centers, ds.head(1).headOption.map(_.vec))
    val bc = ds.sparkSession.sparkContext.broadcast(centers)
    val top = ds.rdd.map(p => Points.sqDistToSet(p.vec, bc.value)).top(z + 1)
    if (top.isEmpty) 0.0 else math.sqrt(top.min)
  }

  /** Local r_{T,Z_T}(S) ([[Points.radiusWithOutliers]]). */
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
