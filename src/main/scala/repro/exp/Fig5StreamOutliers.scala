package repro.exp

import repro.data.Datasets
import repro.eval.Evaluate
import repro.streaming.{BaseOutliers, CoresetOutliers}

/** Experiment of Fig. 5: Streaming k-center with z outliers — approximation
  * ratio and throughput versus space for CORESETOUTLIERS (space μ(k+z),
  * μ ∈ {1,2,4,8,16}) and BASEOUTLIERS [27] (space ∝ m·k·z, m ∈ {1,2,4,8,16});
  * k = 20, z = 200, points shuffled before streaming.
  */
object Fig5StreamOutliers {

  final case class Row(dataset: String, algo: String, param: Int, space: Int,
                       radius: Double, ratio: Double, throughputKpts: Double)

  val params: Seq[Int] = Seq(1, 2, 4, 8, 16)

  /** Streamed points are capped: BaseOutliers' per-point cost is Θ(m·(k+|F|))
    * with |F| up to (k+1)(z+1) — its low throughput is the paper's headline
    * result, and a 2·10⁴-point stream already exhibits it without blowing the
    * bench budget (throughput is a rate, size-independent).
    */
  val StreamCap = 20000

  def run(cfg: ExpConfig): Seq[Row] = {
    val (k, z) = (cfg.kOutliers, cfg.zOutliers)
    val reps = math.min(cfg.reps, 2)
    val raw = for (spec <- cfg.specs) yield {
      val clean = Datasets.localPoints(spec, math.min(StreamCap, cfg.nFor(spec)), cfg.seed)
      val (pts, _) = Datasets.withOutliers(clean, z, cfg.seed)
      val rows =
        for (p <- params; algo <- Seq("CoresetOutliers", "BaseOutliers"); rep <- 1 to reps) yield {
          val rnd = new scala.util.Random(cfg.seed + 19L * rep)
          val stream = rnd.shuffle(pts.toSeq).toArray
          val (space, kpts, centers) = algo match {
            case "CoresetOutliers" =>
              val a = new CoresetOutliers(k, z, p, seed = cfg.seed + rep)
              (a.space, Sweep.throughput(stream)(a.update), a.result().centers)
            case "BaseOutliers" =>
              val a = new BaseOutliers(k, z, p)
              (a.space, Sweep.throughput(stream)(a.update), a.result())
          }
          (algo, p, space, Evaluate.radiusWithOutliersLocal(pts, centers, z), kpts)
        }
      spec -> rows
    }
    raw.flatMap { case (spec, rows) =>
      Sweep.cells(rows)(r => (r._1, r._2))(_._4).map { case Sweep.Cell((algo, p), rs, rad, ratio) =>
        Row(spec.name, algo, p, rs.head._3, rad, ratio, rs.map(_._5).sum / rs.size)
      }
    }
  }

  def render(rows: Seq[Row]): String =
    Tables.render("Fig. 5 — Streaming k-center with z outliers: ratio & throughput vs space",
      Seq("dataset", "algo", "param", "space", "radius", "ratio", "kpts_per_s"),
      rows.map(r => Seq(r.dataset, r.algo, r.param.toString, r.space.toString,
                        Tables.f(r.radius), Tables.f(r.ratio), Tables.f2(r.throughputKpts))))
}
