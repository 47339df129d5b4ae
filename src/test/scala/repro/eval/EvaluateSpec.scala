package repro.eval

import org.apache.spark.sql.DataFrame
import repro.core.{CoresetSpec, GMM, Points, WeightedPoint}
import repro.data.DataPoint
import repro.{SparkSpec, TestData}

/** Checks `Evaluate`'s radius functions (maps over the RDD) against a Spark
  * SQL radius and locally computed distances: a broken distance kernel or a
  * wrong aggregation shows up as a result mismatch, not just "it ran".
  */
class EvaluateSpec extends SparkSpec {

  private def pointsDF(pts: Array[Array[Double]]): DataFrame = {
    import spark.implicits._
    pts.toSeq.zipWithIndex.map { case (v, i) => (i.toLong, v(0), v(1), v(2)) }
      .toDF("id", "x1", "x2", "x3")
  }

  private def centersDF(cs: Array[Array[Double]]): DataFrame = {
    import spark.implicits._
    cs.toSeq.zipWithIndex.map { case (v, i) => (i.toLong, v(0), v(1), v(2)) }
      .toDF("cid", "c1", "c2", "c3")
  }

  /** Radius as a pure SQL query. */
  private val radiusSql =
    """SELECT max(mind) AS radius FROM (
      |  SELECT p.id AS id,
      |         min(sqrt((cast(p.x1 as double) - cast(c.c1 as double)) * (cast(p.x1 as double) - cast(c.c1 as double))
      |                + (cast(p.x2 as double) - cast(c.c2 as double)) * (cast(p.x2 as double) - cast(c.c2 as double))
      |                + (cast(p.x3 as double) - cast(c.c3 as double)) * (cast(p.x3 as double) - cast(c.c3 as double)))) AS mind
      |  FROM points p CROSS JOIN centers c GROUP BY p.id
      |) t""".stripMargin

  test("Evaluate.radiusDS matches the SQL radius") {
    import spark.implicits._
    val pts = TestData.uniform(150, 3, 2L)
    val cs = GMM.coreset(pts, CoresetSpec.FixedSize(5), 0L).centers
    val ds = spark.createDataset(pts.toSeq.zipWithIndex.map { case (v, i) =>
      DataPoint(i.toLong, v, isOutlier = false)
    })
    pointsDF(pts).createOrReplaceTempView("points")
    centersDF(cs).createOrReplaceTempView("centers")
    val viaSql = spark.sql(radiusSql).collect().head.getDouble(0)
    val r = Evaluate.radiusWithOutliersDS(ds, cs, 0)
    assert(math.abs(r - viaSql) < 1e-9)
    assert(r == math.sqrt(pts.map(Points.sqDistToSet(_, cs)).max))
    assert(r == Evaluate.radiusWithOutliersLocal(pts, cs, 0))
  }

  test("round-1 coreset weights sum to the input size") {
    val pts = TestData.uniform(500, 3, 4L)
    val coreset: Array[WeightedPoint] = GMM.coreset(pts, CoresetSpec.FixedSize(25), 7L).weighted
    assert(coreset.length == 25)
    assert(coreset.map(_.weight).sum == 500L)
  }

  test("radiusWithOutliersDS drops the z farthest (vs SQL order-by)") {
    import repro.data.DataPoint
    import spark.implicits._
    val pts = TestData.uniform(100, 3, 5L)
    val cs = GMM.coreset(pts, CoresetSpec.FixedSize(3), 0L).centers
    val ds = spark.createDataset(pts.toSeq.zipWithIndex.map { case (v, i) =>
      DataPoint(i.toLong, v, isOutlier = false)
    })
    val dists = pts.map(p => math.sqrt(Points.sqDistToSet(p, cs))).sorted
    for (z <- Seq(0, 3, 9)) {
      val expected = dists(dists.length - 1 - z)
      assert(math.abs(Evaluate.radiusWithOutliersDS(ds, cs, z) - expected) < 1e-9, s"z=$z")
    }
  }

  /** Empty, longer, shorter and non-finite centers for 3-d data. */
  private val badCenters: Seq[Array[Array[Double]]] = Seq(
    Array.empty[Array[Double]],
    Array(Array(1.0, 2.0, 3.0), Array(1.0, 2.0, 3.0, 4.0)),
    Array(Array(1.0, 2.0)),
    Array(Array(1.0, Double.NaN, 3.0)),
    Array(Array(0.0, 0.0, 0.0), Array(Double.PositiveInfinity, 0.0, 0.0)),
  )

  private def pointsDS(pts: Array[Array[Double]]) = {
    import spark.implicits._
    spark.createDataset(pts.toSeq.zipWithIndex.map { case (v, i) => DataPoint(i.toLong, v, isOutlier = false) })
  }

  test("radiusDS rejects empty, mis-sized and non-finite centers") {
    val ds = pointsDS(TestData.uniform(30, 3, 6L))
    badCenters.foreach(cs => intercept[IllegalArgumentException](Evaluate.radiusWithOutliersDS(ds, cs, 0)))
  }

  test("the objective is 0.0 on empty data, on Spark as locally, for every z") {
    val empty = pointsDS(Array.empty[Array[Double]])
    val cs = Array(Array(1.0, 2.0, 3.0))
    for (z <- Seq(0, 3)) {
      assert(Evaluate.radiusWithOutliersDS(empty, cs, z) == 0.0, s"z=$z")
      assert(Evaluate.radiusWithOutliersLocal(Array.empty[Array[Double]], cs, z) == 0.0, s"z=$z")
    }
  }

  test("radiusWithOutliersDS rejects empty, mis-sized and non-finite centers") {
    val ds = pointsDS(TestData.uniform(30, 3, 6L))
    badCenters.foreach(cs => intercept[IllegalArgumentException](Evaluate.radiusWithOutliersDS(ds, cs, 2)))
    // z < 0 would run top(0) and read 0.0.
    intercept[IllegalArgumentException](Evaluate.radiusWithOutliersDS(ds, Array(Array(1.0, 2.0, 3.0)), -1))
  }

  test("radiusLocal rejects empty, mis-sized and non-finite centers") {
    val pts = TestData.uniform(30, 3, 6L)
    badCenters.foreach(cs => intercept[IllegalArgumentException](Evaluate.radiusWithOutliersLocal(pts, cs, 0)))
  }

  test("radiusWithOutliersLocal rejects empty, mis-sized and non-finite centers") {
    val pts = TestData.uniform(30, 3, 6L)
    badCenters.foreach(cs => intercept[IllegalArgumentException](Evaluate.radiusWithOutliersLocal(pts, cs, 2)))
    // z < 0 would read the z = 0 radius off an empty heap.
    intercept[IllegalArgumentException](Evaluate.radiusWithOutliersLocal(pts, Array(Array(1.0, 2.0, 3.0)), -1))
  }

  test("timed measures and returns the thunk result") {
    val (v, ms) = Evaluate.timed { Thread.sleep(15); 42 }
    assert(v == 42 && ms >= 10)
  }
}
