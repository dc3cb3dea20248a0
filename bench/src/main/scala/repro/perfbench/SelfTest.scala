package repro.perfbench

import org.apache.spark.sql.Row
import repro.Oracle
import repro.cleo.{Family, Trainer}
import repro.scopesim._
import repro.sparkint.{CleoCatalyst, TpchLite}

/** Shows that each correctness check passes on a clean input and fails on
  * the same input with one corruption.
  */
object SelfTest {

  private final case class Case(name: String, clean: Seq[String], corrupted: Seq[String])

  private def planCase(): Case = {
    val cfg = WorkloadGen.cluster(4)
    val job = WorkloadGen.genJobs(cfg, days = 1)
      .find(_.root.allNodes.exists(_.op == PhysOp.HashJoin)).get
    def unequal(n: Phys): Phys =
      if (n.op == PhysOp.HashJoin) {
        val r = n.children(1)
        n.copy(children = Vector(n.children(0), r.copy(partitions = r.partitions + 1)))
      } else n.copy(children = n.children.map(unequal))
    Case("plan with a join whose inputs have unequal partition counts",
      Checks.planViolations(job.root), Checks.planViolations(unequal(job.root)))
  }

  private def modelCases(): Seq[Case] = {
    val cfg = WorkloadGen.cluster(4)
    val samples = Logs.samples(WorkloadGen.genJobs(cfg, days = 1), cfg.gtConfig)
    val f = Family.Operator
    val models = Trainer.trainFamily(samples, f)
    val expected = Checks.qualifyingKeys(samples, f)
    val groups = samples.groupBy(f.key)
    val (key, model) = models.maxBy(_._2.n)
    val worse = model.copy(net = model.net.copy(intercept = model.net.intercept + 10.0))
    Seq(
      Case("family map missing one qualifying signature",
        Checks.familyKeyProblems(f, models, expected), Checks.familyKeyProblems(f, models - key, expected)),
      Case("model whose training loss exceeds the intercept-only loss",
        Checks.lossProblem(f, key, model, groups(key)).toSeq, Checks.lossProblem(f, key, worse, groups(key)).toSeq),
    )
  }

  private def sparkCases(): Seq[Case] = {
    val spark = TpchVerify.session()
    try {
      val tables = TpchLite.register(spark, TpchVerify.OracleSf)
      // The workload's check: the oracle, and for a rejected result the
      // tolerant second comparison, which must reject it too.
      def oracle(df: org.apache.spark.sql.DataFrame, q: TpchLite.Query, sql: String): Seq[String] = {
        val used = q.tables.map(t => t -> tables(t))
        try { Oracle.assertEquivalent(df, sql, used: _*); Nil }
        catch { case _: IllegalArgumentException => TpchVerify.recheck(df, sql, used) }
      }
      val q1 = TpchLite.queries.find(_.name == "Q1").get
      val sql = q1.sql(1)
      val clean = spark.sql(sql)
      val rows = clean.collect()
      val cnt = clean.columns.indexOf("cnt")
      val first = rows.head.toSeq.updated(cnt, rows.head.getLong(cnt) + 1)
      val altered = spark.createDataFrame(
        java.util.Arrays.asList((Row.fromSeq(first) +: rows.tail.toSeq): _*), clean.schema)

      val q3 = TpchLite.queries.find(_.name == "Q3").get
      val merge = CleoCatalyst.Config("merge", 64)
      val plan = TpchVerify.withConfig(spark, merge)(spark.sql(q3.sql(1)).queryExecution.executedPlan)
      Seq(
        Case("Spark result with one altered row", oracle(clean, q1, sql), oracle(altered, q1, sql)),
        Case("executed plan with another join operator and partition count",
          TpchVerify.planProblems(plan, merge), TpchVerify.planProblems(plan, CleoCatalyst.Config("hash", 16))),
      )
    } finally spark.stop()
  }

  def run(): Int = {
    val cases = Seq(planCase()) ++ modelCases() ++ sparkCases()
    cases.foreach { c =>
      val ok = c.clean.isEmpty && c.corrupted.nonEmpty
      println(s"${if (ok) "ok  " else "FAIL"} ${c.name}")
      c.clean.foreach(p => println(s"       clean input rejected: $p"))
      c.corrupted.headOption.fold(println("       corrupted input accepted"))(p => println(s"       corrupted input rejected: $p"))
    }
    if (cases.forall(c => c.clean.isEmpty && c.corrupted.nonEmpty)) 0 else 1
  }
}
