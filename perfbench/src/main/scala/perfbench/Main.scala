package perfbench

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.util.control.NonFatal

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2.0
  }
}

/** Runs one workload and prints, as the last line of standard output, one
  * JSON object {correct, attempted, failed, metrics}.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * With `--trace 0` it reports the end-to-end metrics: `solve_s`, the median
  * wall time of one solve; `approx_ratio`, the objective over the benchmark's
  * lower bound; `stream_kpts_per_s`, input points over the time of the pass
  * over them; `setup_s`, Spark start-up plus the median of [[SetUps]] set-ups
  * plus the warm-up solve. With `--trace 1` it reports the per-layer metrics of
  * solves composed from each layer's public call, with spans written to
  * `<out>/spans-<workload>-<seed>.jsonl`. A layer that the workload bypasses
  * reports 0.
  *
  * Every solve is checked by [[Quality.invalidity]], and every solve at the
  * seed must return the same radius, size and objective.
  */
object Main {
  /** Set-ups per untraced run; `setup_s` takes their median. */
  val SetUps = 3
  /** Solves before measuring, so that the JIT has compiled the hot loops. */
  val WarmUps = 1
  /** Measured solves per run at least, so that `solve_s` is a true median
    * even when a solve takes half the run.
    */
  val MinSolves = 3

  val layerMetrics: Seq[(String, String)] = Seq(
    "mr.route_s" -> "s", "mr.round1_s" -> "s", "mr.task_s_max" -> "s", "mr.task_s_median" -> "s",
    "mr.union_size" -> "count",
    "gmm.coreset_s" -> "s", "gmm.weigh_s" -> "s",
    "search.round2_s" -> "s", "search.probes" -> "count", "search.radius" -> "distance",
    "search.probe_s" -> "s",
    "cluster.first_scan_s" -> "s", "cluster.probe_s" -> "s",
    "stream.update_s" -> "s", "stream.update_ns_per_pt" -> "ns", "stream.merges" -> "count",
    "stream.coreset_size" -> "count", "stream.solve_s" -> "s", "stream.probes" -> "count",
    "eval.objective_s" -> "s", "eval.lower_bound_s" -> "s",
    "jvm.gc_s" -> "s", "jvm.heap_peak_mb" -> "MiB",
    "trace.overhead_s" -> "s",
  )

  private def arg(args: Array[String], key: String): String = {
    val i = args.indexOf(key)
    require(i >= 0 && i + 1 < args.length, s"missing $key")
    args(i + 1)
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def main(args: Array[String]): Unit = {
    val name = arg(args, "--workload")
    val seed = arg(args, "--seed").toLong
    val runSeconds = arg(args, "--seconds").toDouble
    val trace = arg(args, "--trace") == "1"
    val out = java.nio.file.Paths.get(arg(args, "--out"))
    require(Workload.names.contains(name), s"unknown workload $name; known: ${Workload.names.mkString(", ")}")

    val nproc = Runtime.getRuntime.availableProcessors()
    val t0 = System.nanoTime()
    val spark =
      if (Workload.usesSpark(name)) Some(SparkSession.builder.appName("perfbench").getOrCreate()) else None
    val sparkStartS = seconds(t0)
    println(s"perfbench env workload=$name seed=$seed trace=${if (trace) 1 else 0} nproc=$nproc " +
      s"heap_max_mb=${Jvm.heapMaxMb} jdk=${System.getProperty("java.version")} " +
      s"spark_master=${spark.map(_.sparkContext.master).getOrElse("none")} " +
      s"shuffle_partitions=${spark.map(_.conf.get("spark.sql.shuffle.partitions")).getOrElse("none")} " +
      s"common_pool=${java.util.concurrent.ForkJoinPool.getCommonPoolParallelism}")

    try {
      val wl = Workload(name, seed, spark.get)
      val run = new Run(wl)
      val (correct, metrics) = if (trace) run.traced(runSeconds, out.resolve(s"spans-$name-$seed.jsonl"))
                               else run.endToEnd(runSeconds, sparkStartS)
      val body = metrics.map { case (m, v, unit) =>
        require(!v.isNaN && !v.isInfinite, s"metric $m is $v")
        s""""$m": {"value": $v, "unit": "$unit"}"""
      }.mkString(", ")
      println(s"""{"correct": $correct, "attempted": ${run.attempted}, "failed": ${run.failed}, "metrics": {$body}}""")
    } finally spark.foreach(_.stop())
  }

  /** The solves of one run, each checked. */
  final class Run(wl: Workload) {
    var attempted = 0
    var failed = 0
    private var reference: Option[(Double, Int, Double)] = None
    private var repeatable = true
    private val solves = mutable.ArrayBuffer.empty[(Solve, Double)]

    /** One checked solve; None if it threw or returned an invalid answer. */
    def attempt(): Option[(Solve, Double)] = {
      attempted += 1
      try {
        val s = wl.solve()
        val obj = wl.objective(s.centers)
        Quality.invalidity(s.centers, wl.dim, Params.K, obj, wl.lowerBound, Params.HatEps) match {
          case Some(why) =>
            failed += 1
            Console.err.println(s"perfbench: invalid solve: $why")
            None
          case None =>
            val key = (s.radius, s.size, obj)
            if (reference.isEmpty) reference = Some(key)
            else if (reference.get != key) {
              repeatable = false
              Console.err.println(s"perfbench: solve at the same seed changed from ${reference.get} to $key")
            }
            Some((s, obj))
        }
      } catch {
        case NonFatal(e) =>
          failed += 1
          Console.err.println(s"perfbench: solve failed: $e")
          None
      }
    }

    private def report(metric: String, values: Seq[Double], unit: String): (String, Double, String) = {
      val v = Stats.median(values)
      println(s"perfbench metric $metric=$v $unit median of ${values.length}: ${values.mkString(" ")}")
      (metric, v, unit)
    }

    def endToEnd(runSeconds: Double, sparkStartS: Double): (Boolean, Seq[(String, Double, String)]) = {
      val parts = mutable.ArrayBuffer.empty[(Double, Double)]
      val setUps = (1 to SetUps).map { _ =>
        val t0 = System.nanoTime()
        parts += wl.setUp()
        seconds(t0)
      }
      val t0 = System.nanoTime()
      (1 to WarmUps).foreach(_ => attempt())
      val warmUpS = seconds(t0)
      val setupS = sparkStartS + Stats.median(setUps) + warmUpS
      println(s"perfbench setup spark_start_s=$sparkStartS set_ups_s=${setUps.mkString(",")} " +
        s"inputs_s=${parts.map(_._1).mkString(",")} lower_bound_s=${parts.map(_._2).mkString(",")} " +
        s"warm_up_s=$warmUpS lower_bound=${wl.lowerBound}")

      val start = System.nanoTime()
      while (attempted < WarmUps + MinSolves || seconds(start) < runSeconds) attempt().foreach(solves += _)
      require(solves.nonEmpty, "no valid solve")
      val metrics = Seq(
        report("solve_s", solves.map(_._1.seconds).toSeq, "s"),
        report("approx_ratio", solves.map(_._2 / wl.lowerBound).toSeq, "ratio"),
        report("stream_kpts_per_s", solves.map(s => wl.points / s._1.passSeconds / 1000.0).toSeq, "kpts/s"),
        report("setup_s", Seq(setupS), "s"),
      )
      (failed == 0 && repeatable, metrics)
    }

    def traced(runSeconds: Double, spansPath: java.nio.file.Path): (Boolean, Seq[(String, Double, String)]) = {
      val spans = new Spans
      val (_, lowerBoundS) = wl.setUp()
      (1 to WarmUps).foreach(_ => attempt())
      val untraced = mutable.ArrayBuffer.empty[Double]
      val layers = mutable.ArrayBuffer.empty[Map[String, Double]]
      var consistent = true
      val gc0 = Jvm.gcSeconds
      Jvm.resetHeapPeak()
      val start = System.nanoTime()
      while (layers.isEmpty || seconds(start) < runSeconds) {
        attempt().foreach { case (s, _) => untraced += s.seconds }
        spans.iteration += 1
        val l = wl.traced(spans)
        if (reference.exists(_._1 != l("search.radius"))) {
          consistent = false
          Console.err.println(s"perfbench: traced radius ${l("search.radius")} differs from ${reference.get._1}")
        }
        layers += l
      }
      val gcS = Jvm.gcSeconds - gc0
      val heapPeakMb = Jvm.heapPeakMb
      spans.write(spansPath)
      Console.err.println(s"perfbench: spans written to $spansPath")
      require(untraced.nonEmpty, "no valid untraced solve")

      val measured: Map[String, Seq[Double]] = layerMetrics.map(_._1).map { m =>
        m -> layers.flatMap(_.get(m)).toSeq
      }.toMap ++ Map(
        "eval.lower_bound_s" -> Seq(lowerBoundS),
        "jvm.gc_s" -> Seq(gcS),
        "jvm.heap_peak_mb" -> Seq(heapPeakMb),
        "trace.overhead_s" -> Seq(Stats.median(layers.map(_("solve_s")).toSeq) - Stats.median(untraced.toSeq)),
      )
      layers.head.keys.filter(_.startsWith("share.")).toSeq.sorted.foreach { sh =>
        println(s"perfbench $sh=${Stats.median(layers.map(_(sh)).toSeq)} of the solve")
      }
      val metrics = layerMetrics.map { case (m, unit) =>
        val vs = measured(m)
        if (vs.isEmpty) { // the workload bypasses this layer
          println(s"perfbench metric $m=0 $unit (layer not used by this workload)")
          (m, 0.0, unit)
        } else report(m, vs, unit)
      }
      (failed == 0 && repeatable && consistent, metrics)
    }
  }
}
