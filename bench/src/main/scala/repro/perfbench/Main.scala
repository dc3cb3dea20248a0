package repro.perfbench

import java.lang.management.ManagementFactory

/** What one workload run measured and checked; per-layer metrics come from
  * [[Trace]] (see [[Metrics.perLayer]]).
  */
final case class Outcome(
    problems: Seq[String],
    attempted: Long,
    failed: Long,
    endToEnd: Map[String, Double],
)

/** One whole round of a workload's operations. */
final case class Round[A](seconds: Double, result: A)

object Timed {

  /** Runs whole rounds, at least one, until `seconds` have passed, so every
    * run attempts the same operations in each round.
    */
  def rounds[A](seconds: Double)(body: => A): Vector[Round[A]] = {
    val start = System.nanoTime()
    val out = Vector.newBuilder[Round[A]]
    while ({
      val t = System.nanoTime()
      val r = body
      out += Round((System.nanoTime() - t) / 1e9, r)
      (System.nanoTime() - start) / 1e9 < seconds
    }) ()
    out.result()
  }

  private val threads = ManagementFactory.getThreadMXBean

  /** CPU time of the calling thread, in nanoseconds. */
  def threadCpuNs(): Long = threads.getCurrentThreadCpuTime

  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time of the whole process, in nanoseconds. */
  def processCpuNs(): Long = os.getProcessCpuTime

  /** Heap in use after a full collection, in MiB. */
  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank `q`-quantile, 0 < q <= 1. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.length).toInt - 1))
  }
}

/** The metrics the benchmark reports, with their units. */
object Metrics {

  /** Reported by every workload from an untraced run. */
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "op_cpu_ms_p50" -> "ms", "round_cpu_s" -> "s", "verify_cpu_s" -> "s", "live_heap_mb" -> "MiB")

  private def perCandidate(span: String): Double = {
    val c = Trace.counter("planner.candidates")
    if (c == 0) 0.0 else Trace.totalNs(span) / 1e6 / c
  }

  private def counter(name: String): () => Double = () => Trace.counter(name)

  /** Reported by every workload from a traced run; a layer the workload does
    * not call reads 0.
    */
  val perLayer: Seq[(String, String, () => Double)] = Seq(
    ("scopesim.realize_us", "us", () => Trace.mean("scopesim.realize", 1e3)),
    ("scopesim.signatures_us", "us", () => Trace.mean("scopesim.signatures", 1e3)),
    ("core.features_us", "us", () => Trace.mean("core.features", 1e3)),
    ("cleo.predict_us", "us", () => Trace.mean("cleo.predict", 1e3)),
    ("cleo.theta_us", "us", () => Trace.mean("cleo.theta", 1e3)),
    ("cleo.jobcost_ms", "ms", () => perCandidate("cleo.jobcost")),
    ("planner.partition_opt_ms", "ms", () => perCandidate("planner.partition_opt")),
    ("planner.candidates", "count", counter("planner.candidates")),
    ("planner.operators_costed", "count", counter("planner.operators_costed")),
    ("planner.plans_changed", "count", counter("planner.plans_changed")),
    ("planner.partitions_moved", "count", counter("planner.partitions_moved")),
    ("planner.exchanges_elided", "count", counter("planner.exchanges_elided")),
    ("planner.opt_ms_p95", "ms", counter("planner.opt_ms_p95")),
    ("planner.default_opt_ms", "ms", () => Trace.mean("planner.default_opt", 1e6)),
    ("planner.sim_latency_s", "s", counter("planner.sim_latency_s")),
    ("planner.sim_cpu_s", "s", counter("planner.sim_cpu_s")),
    ("scopesim.logs_s", "s", () => Trace.mean("scopesim.logs", 1e9)),
    ("scopesim.samples", "count", counter("scopesim.samples")),
    ("cleo.train_subgraph_s", "s", () => Trace.mean("cleo.train_subgraph", 1e9)),
    ("cleo.train_approx_s", "s", () => Trace.mean("cleo.train_approx", 1e9)),
    ("cleo.train_input_s", "s", () => Trace.mean("cleo.train_input", 1e9)),
    ("cleo.train_operator_s", "s", () => Trace.mean("cleo.train_operator", 1e9)),
    ("cleo.meta_features_us", "us", () => Trace.mean("cleo.meta_features", 1e3)),
    ("ml.fasttree_fit_s", "s", () => Trace.mean("ml.fasttree_fit", 1e9)),
    ("cleo.meta_train_s", "s", () => Trace.mean("cleo.meta_train", 1e9)),
    ("cleo.models_subgraph", "count", counter("cleo.models_subgraph")),
    ("cleo.models_approx", "count", counter("cleo.models_approx")),
    ("cleo.models_input", "count", counter("cleo.models_input")),
    ("cleo.models_operator", "count", counter("cleo.models_operator")),
    ("cleo.model_bytes", "B", counter("cleo.model_bytes")),
    ("cleo.model_med_err_pct", "%", counter("cleo.model_med_err_pct")),
    ("sparkint.register_s", "s", () => Trace.totalNs("sparkint.register") / 1e9),
    ("sparkint.run_s", "s", () => Trace.mean("sparkint.run", 1e9)),
    ("sparkint.task_cpu_s", "s", () => {
      val n = Trace.count("sparkint.run"); if (n == 0) 0.0 else Trace.counter("sparkint.task_cpu_s") / n
    }),
    ("oracle.verify_s", "s", () => Trace.mean("oracle.verify", 1e9)),
    ("oracle.rows_loaded", "count", counter("oracle.rows_loaded")),
    ("oracle.false_mismatches", "count", counter("oracle.false_mismatches")),
  )
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`,
  * or `--selftest` to check that every correctness check rejects a corrupted
  * input. Prints the result as one JSON object on the last line of stdout; a
  * traced run also writes its spans to
  * `.bench_build/perfbench/trace-<workload>.json`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val code = try {
      if (args.contains("--selftest")) SelfTest.run()
      else {
        val workload = opts.getOrElse("workload", throw new IllegalArgumentException("--workload is required"))
        val seed = opts.getOrElse("seed", "1").toLong
        val seconds = opts.getOrElse("seconds", "1").toDouble
        Trace.on = opts.getOrElse("trace", "0") == "1"
        val started = System.nanoTime()
        val outcome = workload match {
          case "plan-c1" => PlanC1.run(seed, seconds)
          case "tpch-verify" => TpchVerify.run(seed, seconds)
          case other => throw new IllegalArgumentException(s"unknown workload $other")
        }
        val wallS = (System.nanoTime() - started) / 1e9
        outcome.problems.foreach(p => System.err.println(s"[$workload] CHECK FAILED: $p"))
        if (Trace.on) summarize(workload, wallS, s".bench_build/perfbench/trace-$workload.json")
        else println(f"[$workload] run wall time $wallS%.3f s")
        val metrics =
          if (Trace.on) Metrics.perLayer.map { case (k, u, f) => (k, u, f()) }
          else Metrics.endToEnd.map { case (k, u) =>
            (k, u, outcome.endToEnd.getOrElse(k, throw new IllegalStateException(s"$workload did not measure $k")))
          }
        val body = metrics.map { case (k, u, v) =>
          s"${Json.str(k)}: {\"value\": ${Json.num(v)}, \"unit\": ${Json.str(u)}}"
        }.mkString(", ")
        println(s"""{"correct": ${outcome.problems.isEmpty}, "attempted": ${outcome.attempted}, """ +
          s""""failed": ${outcome.failed}, "metrics": {$body}}""")
        0
      }
    } catch {
      case e: Exception =>
        System.err.println(s"perfbench: $e")
        e.printStackTrace()
        1
    }
    System.exit(code)
  }

  /** Prints each layer's self time and the share of the timed phase that
    * layer spans cover, then writes the spans.
    */
  private def summarize(workload: String, wallS: Double, path: String): Unit = {
    val self = Trace.selfNs
    println(f"[$workload] traced run wall time $wallS%.3f s, ${Trace.spanCount} spans")
    self.groupBy(_._1.takeWhile(_ != '.')).toSeq.sortBy(-_._2.map(_._2).sum).foreach { case (layer, spans) =>
      println(f"[$workload]   layer $layer%-9s self ${spans.map(_._2).sum / 1e9}%9.3f s")
      spans.sortBy(-_._2).foreach { case (name, ns) =>
        println(f"[$workload]     $name%-26s n=${Trace.count(name)}%8d total=${Trace.totalNs(name) / 1e9}%9.3f s self=${ns / 1e9}%9.3f s")
      }
    }
    for (phase <- Seq("bench.setup", "bench.timed")) {
      val (covered, base) = Trace.coverage(phase)
      if (base > 0)
        println(f"[$workload]   layer spans cover ${covered / 1e9}%.3f s of the ${base / 1e9}%.3f s $phase phase (${100.0 * covered / base}%.1f%%)")
    }
    new java.io.File(path).getAbsoluteFile.getParentFile.mkdirs()
    Trace.writeJson(path)
    println(s"[$workload]   spans written to $path")
  }
}
