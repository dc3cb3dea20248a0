package repro.perfbench

import repro.cleo.{CostModel, Family, Trainer}
import repro.scopesim.{OpSample, Phys, PhysOp}

/** The benchmark's correctness checks, written apart from the program: each
  * returns the problems it finds (empty when the input is correct).
  */
object Checks {

  private def isJoin(op: PhysOp): Boolean = op == PhysOp.HashJoin || op == PhysOp.MergeJoin

  /** Legality of a physical plan:
    *  - both inputs of every join carry the join's partition count and key;
    *  - every unary operator other than Exchange carries its child's count;
    *  - merge-join inputs are sorted on the join key;
    *  - every partition count is in [1, 3000].
    */
  def planViolations(root: Phys): Seq[String] = root.allNodes.flatMap { n =>
    val where = s"${n.op.name}#${n.logicalId}@P=${n.partitions}"
    val range =
      if (n.partitions < 1 || n.partitions > 3000) Seq(s"$where: partition count out of [1, 3000]")
      else Nil
    val shape =
      if (isJoin(n.op)) n.children.flatMap { c =>
        val part =
          if (c.partitions != n.partitions || c.partitionKey != n.partitionKey)
            Seq(s"$where: input ${c.op.name}#${c.logicalId} is at P=${c.partitions} key=${c.partitionKey.getOrElse("-")}, " +
              s"join needs P=${n.partitions} key=${n.partitionKey.getOrElse("-")}")
          else Nil
        val sort =
          if (n.op == PhysOp.MergeJoin && c.sortKey != n.partitionKey)
            Seq(s"$where: merge-join input ${c.op.name}#${c.logicalId} is not sorted on the join key")
          else Nil
        part ++ sort
      }
      else if (n.children.length == 1 && n.op != PhysOp.Exchange && n.partitions != n.children.head.partitions)
        Seq(s"$where: unary operator differs from its child's P=${n.children.head.partitions}")
      else Nil
    range ++ shape
  }

  /** Signatures that occur at least [[Trainer.MinOccurrences]] times, counted
    * here with a plain hash map rather than the trainer's grouping.
    */
  def qualifyingKeys(samples: Seq[OpSample], family: Family): Set[Long] = {
    val counts = new java.util.HashMap[Long, Integer]()
    samples.foreach { s =>
      val k = family.key(s)
      counts.merge(k, 1, (a: Integer, b: Integer) => Integer.valueOf(a + b))
    }
    val out = Set.newBuilder[Long]
    counts.forEach((k, c) => if (c >= Trainer.MinOccurrences) out += k)
    out.result()
  }

  /** A family's model keys must equal its qualifying signatures. */
  def familyKeyProblems(family: Family, models: Map[Long, CostModel], expected: Set[Long]): Seq[String] = {
    val missing = expected.diff(models.keySet)
    val extra = models.keySet.diff(expected)
    (if (missing.nonEmpty) Seq(s"${family.name}: ${missing.size} qualifying signatures have no model") else Nil) ++
      (if (extra.nonEmpty) Seq(s"${family.name}: ${extra.size} models for signatures below the threshold") else Nil)
  }

  /** An elastic net's training MSE in log space must not exceed the variance
    * of its targets (the loss of the intercept-only model).
    */
  def lossProblem(family: Family, key: Long, model: CostModel, group: Seq[OpSample]): Option[String] = {
    val ys = group.map(s => math.log1p(math.max(0.0, s.actual)))
    val mean = ys.sum / ys.length
    val variance = ys.map(y => (y - mean) * (y - mean)).sum / ys.length
    val mse = group.iterator.zip(ys.iterator).map { case (s, y) =>
      val d = model.net.predict(s.features) - y; d * d
    }.sum / ys.length
    if (mse <= variance * (1 + 1e-9) + 1e-12) None
    else Some(f"${family.name} model $key%x: training MSE $mse%.6g exceeds target variance $variance%.6g")
  }

  private def norm(v: Any): Any = v match {
    case null => null
    case n: java.lang.Number => n.doubleValue
    case x => x.toString
  }

  /** Two query results as multisets of rows: values in the same column order,
    * numbers equal within a relative 1e-9, everything else equal as text.
    */
  def resultProblems(got: Seq[Seq[Any]], expected: Seq[Seq[Any]]): Seq[String] = {
    def key(r: Seq[Any]): String = r.map {
      case d: Double => if (d == math.rint(d)) d.toLong.toString else f"$d%.4e"
      case x => String.valueOf(x)
    }.mkString("|")
    val g = got.map(_.map(norm)).sortBy(key)
    val e = expected.map(_.map(norm)).sortBy(key)
    def same(a: Any, b: Any): Boolean = (a, b) match {
      case (x: Double, y: Double) => math.abs(x - y) <= 1e-9 * math.max(1.0, math.max(math.abs(x), math.abs(y)))
      case _ => a == b
    }
    if (g.length != e.length) Seq(s"${g.length} rows from Spark, ${e.length} from DuckDB")
    else g.zip(e).collect {
      case (a, b) if a.length != b.length || a.zip(b).exists { case (x, y) => !same(x, y) } =>
        s"row ${a.mkString("(", ", ", ")")} from Spark, ${b.mkString("(", ", ", ")")} from DuckDB"
    }.take(3)
  }
}
