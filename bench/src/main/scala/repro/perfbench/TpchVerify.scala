package repro.perfbench

import java.util.concurrent.{ConcurrentLinkedQueue, TimeUnit}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.plans.physical.HashPartitioning
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.datasources.v2.V2TableWriteExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, ShuffledHashJoinExec, SortMergeJoinExec}
import org.apache.spark.sql.util.QueryExecutionListener
import repro.Oracle
import repro.sparkint.{CleoCatalyst, CleoJoinHintRule, TpchLite}

/** `tpch-verify`: the six TPC-H-lite queries under two fixed configurations
  * through `CleoCatalyst.runOnce`, each result then checked against DuckDB.
  */
object TpchVerify {

  /** Spark's merge join at its usual P, and a shuffled hash join at a smaller P. */
  val configs: Seq[CleoCatalyst.Config] = Seq(CleoCatalyst.Config("merge", 64), CleoCatalyst.Config("hash", 16))

  val Sf = 0.01
  val OracleSf = 0.0002

  /** Captures the physical plan of every query the session executes. */
  private final class PlanCapture extends QueryExecutionListener {
    val plans = new ConcurrentLinkedQueue[SparkPlan]()
    override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
      if (qe.executedPlan.isInstanceOf[V2TableWriteExec]) plans.add(qe.executedPlan)
    }
    override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

    /** The next captured plan (listener events arrive asynchronously). */
    def next(): SparkPlan = {
      val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(20)
      var p = plans.poll()
      while (p == null && System.nanoTime() < deadline) { Thread.sleep(2); p = plans.poll() }
      require(p != null, "no executed plan was reported for the query")
      p
    }
  }

  /** The executed plan must use the configuration's join operator for every
    * join and its partition count for every hash shuffle.
    */
  def planProblems(plan: SparkPlan, cfg: CleoCatalyst.Config): Seq[String] = {
    val shuffles = plan.collect { case s: ShuffleExchangeExec => s.outputPartitioning }.collect {
      case h: HashPartitioning if h.numPartitions != cfg.partitions =>
        s"hash shuffle into ${h.numPartitions} partitions, configured ${cfg.partitions}"
    }
    val joins = plan.collect {
      case _: SortMergeJoinExec if cfg.join == "hash"  => "sort-merge join where a hash join was requested"
      case _: ShuffledHashJoinExec if cfg.join != "hash" => "shuffled hash join where a merge join was requested"
      case _: BroadcastHashJoinExec                     => "broadcast join"
    }
    shuffles ++ joins
  }

  def session(): SparkSession = {
    val s = SparkSession.builder()
      .master("local[*]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def show(tables: Map[String, DataFrame]): Unit =
    tables.foreach { case (name, df) => df.createOrReplaceTempView(name) }

  def run(seed: Long, seconds: Double): Outcome = {
    val param = Math.floorMod(seed, 1 << 20).toInt
    val cpu0 = Timed.processCpuNs()
    val spark = Trace.span("bench.setup")(Trace.span("sparkint.session")(session()))
    try {
      val capture = new PlanCapture
      spark.listenerManager.register(capture)
      val (oracleTables, tables) = Trace.span("bench.setup") {
        (Trace.span("sparkint.register")(TpchLite.register(spark, OracleSf)),
          Trace.span("sparkint.register")(TpchLite.register(spark, Sf)))
      }
      val work = for (q <- TpchLite.queries; c <- configs) yield (q, c)
      // Spark sets up on many threads, so set-up is the process's CPU time.
      val setupCpuS = (Timed.processCpuNs() - cpu0) / 1e9

      // Every (query, configuration) is checked first, on the oracle tables;
      // that also compiles each plan's generated code before the timed runs.
      // A single run or oracle call is timed in CPU time of this thread,
      // which plans the query, loads the oracle and schedules the tasks; a
      // round of runs is timed in the process's CPU time, so that it counts
      // the executor threads that run the tasks as well.
      val problems = Seq.newBuilder[String]
      val (verifyCpuS, rounds) = Trace.span("bench.timed") {
        show(oracleTables)
        val verifyCpuS = work.map { case (q, c) =>
          val used = q.tables.map(t => t -> oracleTables(t))
          if (Trace.on) Trace.add("oracle.rows_loaded", used.map(_._2.count()).sum.toDouble)
          val th0 = Timed.threadCpuNs()
          val rejection = oracle(spark, q.sql(param), c, used)
          val cpuS = (Timed.threadCpuNs() - th0) / 1e9
          rejection.foreach { msg =>
            withConfig(spark, c)(recheck(spark.sql(q.sql(param)), q.sql(param), used)) match {
              case Nil =>
                Trace.add("oracle.false_mismatches", 1)
                System.err.println(s"[tpch-verify] the oracle rejected ${q.name} ${c.join}/P=${c.partitions}, " +
                  s"but every value agrees with DuckDB's within 1e-9: ${msg.linesIterator.mkString(" ")}")
              case found => found.foreach(p => problems += s"${q.name} ${c.join}/P=${c.partitions}: $p")
            }
          }
          cpuS
        }
        show(tables)
        val rounds = Timed.rounds(seconds) {
          val p0 = Timed.processCpuNs()
          val runs = Trace.span("bench.pass") {
            work.map { case (q, c) =>
              val th0 = Timed.threadCpuNs()
              val (wall, taskS) = Trace.span("sparkint.run")(CleoCatalyst.runOnce(spark, q.sql(param), c))
              val cpuS = (Timed.threadCpuNs() - th0) / 1e9
              Trace.add("sparkint.task_cpu_s", taskS)
              planProblems(capture.next(), c).foreach(p => problems += s"${q.name} ${c.join}/P=${c.partitions}: $p")
              (wall, cpuS)
            }
          }
          (runs, (Timed.processCpuNs() - p0) / 1e9)
        }
        (verifyCpuS, rounds)
      }
      val heapMb = Timed.liveHeapMb()
      val runs = rounds.flatMap(_.result._1)
      println(f"[tpch-verify] query wall times ${runs.map(r => f"${r._1}%.2f").mkString(", ")} s; " +
        f"round process CPU ${rounds.map(r => f"${r.result._2}%.2f").mkString(", ")} s")
      Outcome(
        problems = problems.result(),
        attempted = work.size.toLong + runs.size,
        failed = 0,
        endToEnd = Map(
          "setup_s" -> setupCpuS,
          "op_cpu_ms_p50" -> Stats.median(runs.map(_._2 * 1e3)),
          "round_cpu_s" -> Stats.median(rounds.map(_.result._2)),
          "verify_cpu_s" -> Stats.median(verifyCpuS),
          "live_heap_mb" -> heapMb,
        ),
      )
    } finally spark.stop()
  }

  /** `Oracle.assertEquivalent` on the query's result under `c`; the
    * oracle's message when it rejects the result.
    */
  def oracle(spark: SparkSession, sql: String, c: CleoCatalyst.Config, used: Seq[(String, DataFrame)]): Option[String] =
    withConfig(spark, c) {
      try { Trace.span("oracle.verify")(Oracle.assertEquivalent(spark.sql(sql), sql, used: _*)); None }
      catch { case e: IllegalArgumentException => Some(e.getMessage) }
    }

  /** Second comparison of the same result with DuckDB's, for results the
    * oracle rejects: the oracle compares numbers printed to 7 significant
    * digits, so two sums that differ in the last bit but straddle a rounding
    * tie read as different. Here numbers match within a relative 1e-9.
    */
  def recheck(df: DataFrame, sql: String, used: Seq[(String, DataFrame)]): Seq[String] = {
    val got = df.collect().map(_.toSeq).toSeq
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = java.sql.DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, t) <- used) {
        val cols = t.columns
        conn.createStatement.execute(s"CREATE TABLE $name (${cols.map(col => s"$col VARCHAR").mkString(", ")})")
        val ps = conn.prepareStatement(s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})")
        t.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs = conn.createStatement.executeQuery(sql)
      val names = (1 to rs.getMetaData.getColumnCount).map(rs.getMetaData.getColumnLabel(_).toLowerCase)
      val order = df.columns.map(col => names.indexOf(col.toLowerCase))
      if (order.contains(-1)) return Seq(s"column mismatch: spark=${df.columns.mkString(",")} duckdb=${names.mkString(",")}")
      val expected = Iterator.continually(rs).takeWhile(_.next()).map(r => order.toSeq.map(i => r.getObject(i + 1))).toSeq
      Checks.resultProblems(got, expected)
    } finally conn.close()
  }

  /** Runs `body` with the configuration's partition count and join hint set,
    * the way `runOnce` sets them.
    */
  def withConfig[A](spark: SparkSession, c: CleoCatalyst.Config)(body: => A): A = {
    val prevParts = spark.conf.get("spark.sql.shuffle.partitions")
    val prevAqe = spark.conf.getOption("spark.sql.adaptive.enabled").getOrElse("true")
    try {
      spark.conf.set("spark.sql.shuffle.partitions", c.partitions.toString)
      spark.conf.set("spark.sql.adaptive.enabled", "false")
      CleoCatalyst.enable(spark)
      CleoJoinHintRule.hint = Some(c.strategyHint)
      body
    } finally {
      CleoJoinHintRule.hint = None
      spark.conf.set("spark.sql.shuffle.partitions", prevParts)
      spark.conf.set("spark.sql.adaptive.enabled", prevAqe)
    }
  }
}
