package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.CoresetSpec
import repro.data.Datasets
import repro.eval.Evaluate
import repro.mr.MRKCenter

/** Experiment of Fig. 2: approximation ratio of the MapReduce k-center
  * algorithm using coresets of size τ = μk per partition, μ ∈ {1,2,4,8},
  * parallelism ℓ ∈ {2,4,8,16}; μ = 1 is the MalkomesEtAl [26] baseline.
  * k is per-dataset (50 / 100 / 60). Ratio = radius / best radius found for
  * the same dataset across the whole sweep.
  */
object Fig2KCenter {

  final case class Row(dataset: String, k: Int, ell: Int, mu: Int,
                       coresetUnion: Int, radius: Double, ratio: Double, timeMs: Long)

  val mus: Seq[Int]  = Seq(1, 2, 4, 8)
  val ells: Seq[Int] = Seq(2, 4, 8, 16)

  def run(spark: SparkSession, cfg: ExpConfig): Seq[Row] = {
    val raw = for (spec <- cfg.specs) yield {
      val ds = Datasets.points(spark, spec, cfg.nFor(spec), cfg.seed).cache()
      ds.count()
      val rows =
        for (ell <- ells; mu <- mus; rep <- 1 to cfg.reps) yield {
          val seed = cfg.seed + 31L * rep
          val (res, ms) = Evaluate.timed(
            MRKCenter.run(ds, spec.k, ell, CoresetSpec.FixedSize(mu * spec.k), seed = seed))
          val radius = Evaluate.radiusWithOutliersDS(ds, res.centers, 0)
          (ell, mu, res.coresetSize, radius, ms)
        }
      ds.unpersist()
      spec -> rows
    }
    raw.flatMap { case (spec, rows) =>
      Sweep.cells(rows)(r => (r._1, r._2))(_._4).map { case Sweep.Cell((ell, mu), rs, rad, ratio) =>
        Row(spec.name, spec.k, ell, mu, rs.head._3, rad, ratio, rs.map(_._5).sum / rs.size)
      }
    }
  }

  def render(rows: Seq[Row]): String =
    Tables.render("Fig. 2 — MapReduce k-center: ratio vs coreset size (mu*k) and parallelism",
      Seq("dataset", "k", "ell", "mu", "|T|", "radius", "ratio", "time_ms"),
      rows.map(r => Seq(r.dataset, r.k.toString, r.ell.toString, r.mu.toString,
                        r.coresetUnion.toString, Tables.f(r.radius), Tables.f(r.ratio),
                        r.timeMs.toString)))
}
