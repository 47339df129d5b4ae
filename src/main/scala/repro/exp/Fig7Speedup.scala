package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.CoresetSpec
import repro.data.Datasets
import repro.mr.{MROutliers, Partitioning}

/** Experiment of Fig. 7: scalability with the number of processors of the
  * randomized MapReduce algorithm for k-center with z outliers. The size of
  * the *union* of the coresets is fixed at 8·(16k + 6z) across ℓ ∈
  * {1,2,4,8,16} (each partition contributes τ_ℓ = 8(16k+6z)/ℓ), so all runs
  * target the same solution quality; time is split into coreset construction
  * (round 1) and OutliersCluster + radius search (round 2). Expected shape:
  * round 2 constant; round 1 scaling superlinearly in ℓ (per-processor work
  * ∝ τ_ℓ·|S|/ℓ ∝ 1/ℓ²).
  */
object Fig7Speedup {

  final case class Row(dataset: String, ell: Int, tauPerPart: Int,
                       coresetMs: Long, clusterMs: Long, totalMs: Long)

  val ells: Seq[Int] = Seq(1, 2, 4, 8, 16)

  def run(spark: SparkSession, cfg: ExpConfig): Seq[Row] = {
    val (k, z) = (cfg.kOutliers, cfg.zOutliers)
    val unionTarget = 8 * (16 * k + 6 * z)
    for (spec <- cfg.specs) yield {
      val base = Datasets.points(spark, spec, cfg.nFor(spec), cfg.seed)
      val ds = Datasets.withOutliersDS(spark, base, z, cfg.seed).cache()
      ds.count()
      val rows = for (ell <- ells) yield {
        val tau = unionTarget / ell
        val reps = for (rep <- 1 to cfg.reps) yield {
          val res = MROutliers.run(ds, k, z, ell, CoresetSpec.FixedSize(tau),
                                   Partitioning.Random, seed = cfg.seed + 13L * rep)
          (res.round1Millis, res.round2Millis)
        }
        val c1 = reps.map(_._1).sum / reps.size
        val c2 = reps.map(_._2).sum / reps.size
        Row(spec.name, ell, tau, c1, c2, c1 + c2)
      }
      ds.unpersist()
      rows
    }
  }.flatten

  def render(rows: Seq[Row]): String =
    Tables.render("Fig. 7 — Scalability vs parallelism (randomized MR, outliers; fixed union 8(16k+6z))",
      Seq("dataset", "ell", "tau_per_part", "coreset_ms", "cluster_ms", "total_ms"),
      rows.map(r => Seq(r.dataset, r.ell.toString, r.tauPerPart.toString,
                        r.coresetMs.toString, r.clusterMs.toString, r.totalMs.toString)))
}
