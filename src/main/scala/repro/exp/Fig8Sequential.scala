package repro.exp

import repro.core.{CharikarEtAl, CoresetSpec, SeqCoresetOutliers, Solution}
import repro.data.Datasets
import repro.eval.Evaluate

/** Experiment of Fig. 8: sequential algorithms for k-center with z outliers
  * on a sample of each dataset (paper: 10⁴ points; configurable) plus 200
  * injected outliers — running time and radius of CHARIKARETAL [16] versus
  * the coreset algorithm run sequentially (ℓ = 1) with coreset size μ(k+z),
  * μ ∈ {1,2,4,8}; μ = 1 is labeled MALKOMESETAL, as in the paper. Input is
  * shuffled before each run.
  */
object Fig8Sequential {

  /** `cert` is the mean over repetitions of radius / optimumLowerBound, an
    * upper bound on the run's approximation ratio. The bound comes from the
    * run's radius search, and for the coreset runs (μ = 1 too) also from
    * their round-1 GMM trace over the whole sample.
    */
  final case class Row(dataset: String, algo: String, timeMs: Long, radius: Double, cert: Double)

  val mus: Seq[Int] = Seq(1, 2, 4, 8)

  def run(cfg: ExpConfig, sampleN: Int = 10000): Seq[Row] = {
    val (k, z) = (cfg.kOutliers, cfg.zOutliers)
    val out = for (spec <- cfg.specs) yield {
      val clean = Datasets.localPoints(spec, math.min(sampleN, cfg.nFor(spec)), cfg.seed)
      val (pts, _) = Datasets.withOutliers(clean, z, cfg.seed)
      def coreset(mu: Int)(s: Array[Array[Double]], seed: Long): Solution =
        SeqCoresetOutliers.run(s, k, z, CoresetSpec.FixedSize(mu * (k + z)), seed = seed)
      val algos = ("CharikarEtAl", CharikarEtAl.run(_, k, z, _)) +:
        mus.map(mu => (if (mu == 1) "MalkomesEtAl(mu=1)" else s"Coreset(mu=$mu)", coreset(mu) _))
      algos.map { case (algo, solve) =>
        val reps = for (rep <- 1 to cfg.reps) yield {
          val rnd = new scala.util.Random(cfg.seed + 41L * rep)
          val stream = rnd.shuffle(pts.toSeq).toArray
          val (res, ms) = Evaluate.timed(solve(stream, cfg.seed + rep))
          (ms, Evaluate.radiusWithOutliersLocal(pts, res.centers, z), res.optimumLowerBound)
        }
        Row(spec.name, algo, reps.map(_._1).sum / reps.size, reps.map(_._2).sum / reps.size,
            reps.map(r => r._2 / r._3).sum / reps.size)
      }
    }
    out.flatten
  }

  def render(rows: Seq[Row]): String =
    Tables.render("Fig. 8 — Sequential k-center with z outliers: time & radius",
      Seq("dataset", "algo", "time_ms", "radius", "cert"),
      rows.map(r => Seq(r.dataset, r.algo, r.timeMs.toString, Tables.f(r.radius), Tables.f(r.cert))))
}
