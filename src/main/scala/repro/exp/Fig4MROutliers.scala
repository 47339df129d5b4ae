package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.Datasets
import repro.eval.Evaluate
import repro.mr.{MROutliers, Partitioning}

/** Experiment of Fig. 4: MapReduce k-center with z outliers — approximation
  * ratio and running time of the deterministic (coresets of size μ(k+z),
  * adversarial partitioning: all outliers in one partition) and randomized
  * (coresets of size μ(k+6z/ℓ), random partitioning) algorithms;
  * μ ∈ {1,2,4,8}, k = 20, z = 200, ℓ = 16. Deterministic μ = 1 is the
  * MalkomesEtAl [26] baseline.
  */
object Fig4MROutliers {

  /** `cert` is the mean over repetitions of radius / optimumLowerBound, an
    * upper bound on each run's approximation ratio that needs no best-ever
    * radius (∞ when the union has at most k+z distinct points).
    */
  final case class Row(dataset: String, algo: String, mu: Int, coresetUnion: Int,
                       radius: Double, ratio: Double, cert: Double, timeMs: Long)

  val mus: Seq[Int] = Seq(1, 2, 4, 8)
  val Ell = 16

  def run(spark: SparkSession, cfg: ExpConfig): Seq[Row] = {
    val (k, z) = (cfg.kOutliers, cfg.zOutliers)
    val raw = for (spec <- cfg.specs) yield {
      val base = Datasets.points(spark, spec, cfg.nFor(spec), cfg.seed)
      val ds = Datasets.withOutliersDS(spark, base, z, cfg.seed).cache()
      ds.count()
      val rows =
        for (mu <- mus; algo <- Seq("deterministic", "randomized"); rep <- 1 to cfg.reps) yield {
          val seed = cfg.seed + 131L * rep
          val res = algo match {
            case "deterministic" =>
              MROutliers.runDeterministic(ds, k, z, Ell, mu,
                partitioning = Partitioning.AdversarialOutliers, seed = seed)
            case "randomized" =>
              MROutliers.runRandomized(ds, k, z, Ell, mu, seed = seed)
          }
          val radius = Evaluate.radiusWithOutliersDS(ds, res.centers, z)
          (algo, mu, res.coresetSize, radius, res.round1Millis + res.round2Millis,
           radius / res.optimumLowerBound)
        }
      ds.unpersist()
      spec -> rows
    }
    raw.flatMap { case (spec, rows) =>
      Sweep.cells(rows)(r => (r._2, r._1))(_._4).map { case Sweep.Cell((mu, algo), rs, rad, ratio) =>
        Row(spec.name, algo, mu, rs.head._3, rad, ratio, rs.map(_._6).sum / rs.size,
            rs.map(_._5).sum / rs.size)
      }
    }
  }

  def render(rows: Seq[Row]): String =
    Tables.render("Fig. 4 — MapReduce k-center with z outliers: ratio & time, det vs randomized",
      Seq("dataset", "algo", "mu", "|T|", "radius", "ratio", "cert", "time_ms"),
      rows.map(r => Seq(r.dataset, r.algo, r.mu.toString, r.coresetUnion.toString,
                        Tables.f(r.radius), Tables.f(r.ratio), Tables.f(r.cert), r.timeMs.toString)))
}
