package repro.exp

import repro.data.Datasets
import repro.eval.Evaluate
import repro.streaming.{BaseStream, CoresetStream}

/** Experiment of Fig. 3: Streaming k-center without outliers — approximation
  * ratio and throughput versus space for CORESETSTREAM (space μ·k,
  * μ ∈ {1,2,4,8,16}) and BASESTREAM [27] (space m·k, m ∈ {1,2,4,8,16}).
  * Points are shuffled before streaming; throughput counts the update loop
  * only (the paper ignores the cost of streaming data from memory).
  */
object Fig3Stream {

  final case class Row(dataset: String, algo: String, param: Int, space: Int,
                       radius: Double, ratio: Double, throughputKpts: Double)

  val params: Seq[Int] = Seq(1, 2, 4, 8, 16)

  def run(cfg: ExpConfig): Seq[Row] = {
    val raw = for (spec <- cfg.specs) yield {
      val pts = Datasets.localPoints(spec, cfg.nFor(spec), cfg.seed)
      val rows =
        for (p <- params; algo <- Seq("CoresetStream", "BaseStream"); rep <- 1 to cfg.reps) yield {
          val rnd = new scala.util.Random(cfg.seed + 17L * rep)
          val stream = rnd.shuffle(pts.toSeq).toArray
          val (space, kpts, centers) = algo match {
            case "CoresetStream" =>
              val a = new CoresetStream(spec.k, p)
              (a.space, Sweep.throughput(stream)(a.update), a.result().centers)
            case "BaseStream" =>
              val a = new BaseStream(spec.k, p)
              (a.space, Sweep.throughput(stream)(a.update), a.result())
          }
          (algo, p, space, Evaluate.radiusWithOutliersLocal(pts, centers, 0), kpts)
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
    Tables.render("Fig. 3 — Streaming k-center: ratio & throughput vs space",
      Seq("dataset", "algo", "param", "space", "radius", "ratio", "kpts_per_s"),
      rows.map(r => Seq(r.dataset, r.algo, r.param.toString, r.space.toString,
                        Tables.f(r.radius), Tables.f(r.ratio), Tables.f2(r.throughputKpts))))
}
