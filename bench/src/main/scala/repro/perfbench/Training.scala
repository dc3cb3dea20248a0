package repro.perfbench

import repro.cleo.{CleoModelSet, Family, Trainer}
import repro.ml.LogSpaceTrainer
import repro.scopesim._

/** The daily feedback loop of Section 5.1 over one cluster's logs, and the
  * checks on the models it writes.
  */
object Training {

  val familyName: Map[Family, String] = Map(
    Family.Subgraph -> "subgraph", Family.Approx -> "approx",
    Family.Input -> "input", Family.Operator -> "operator")

  /** What one pass of the loop produces. */
  final case class Loop(samples: Vector[OpSample], day1: CleoModelSet, deployed: CleoModelSet)

  private def families(ss: Vector[OpSample]): CleoModelSet = {
    val m = Family.all.map { f =>
      f -> Trace.span(s"cleo.train_${familyName(f)}")(Trainer.trainFamily(ss, f))
    }.toMap
    CleoModelSet(m(Family.Subgraph), m(Family.Approx), m(Family.Input), m(Family.Operator), None)
  }

  /** Log extraction, the four families on days 1–2 and on day 1, then the
    * stacked meta-model on day 2 over the day-1 families; the deployed bundle
    * is the day 1–2 families with that meta-model. With tracing on,
    * `Trainer.withCombined` runs step by step so its parts get spans.
    */
  def loop(runs: Vector[JobRun], cfg: ClusterConfig): Loop = {
    val samples = Trace.span("scopesim.logs")(Logs.samples(runs, cfg.gtConfig))
    Trace.add("scopesim.samples", samples.size)
    val deployed = families(samples.filter(_.day <= 2))
    val day1 = families(samples.filter(_.day == 1))
    val day2 = samples.filter(_.day == 2)
    val stacked = Trace.span("cleo.meta_train") {
      if (!Trace.on) Trainer.withCombined(day1, day2)
      else {
        val xs = day2.map(s => Trace.span("cleo.meta_features")(day1.metaFeatures(s))).toArray
        val ys = day2.map(s => math.max(0.0, s.actual)).toArray
        day1.copy(combined = Some(Trace.span("ml.fasttree_fit")(LogSpaceTrainer(Trainer.fastTree).fit(xs, ys))))
      }
    }
    Loop(samples, day1, deployed.copy(combined = stacked.combined))
  }

  /** Every family map holds exactly the qualifying signatures of its training
    * days, every elastic net fits at least as well as its intercept, and the
    * deployed bundle's day-3 median error is below the default model's.
    * Returns the problems and the two day-3 median errors (combined, default).
    */
  def check(l: Loop): (Seq[String], Double, Double) = {
    val problems = Seq.newBuilder[String]
    for ((set, days) <- Seq(l.deployed -> Set(1, 2), l.day1 -> Set(1))) {
      val train = l.samples.filter(s => days.contains(s.day))
      Family.all.foreach { f =>
        problems ++= Checks.familyKeyProblems(f, set.familyMap(f), Checks.qualifyingKeys(train, f))
        val groups = train.groupBy(f.key)
        set.familyMap(f).foreach { case (k, m) =>
          groups.get(k).flatMap(g => Checks.lossProblem(f, k, m, g)).foreach(problems += _)
        }
      }
    }
    val test = l.samples.filter(_.day == 3)
    val actual = test.map(_.actual)
    val err = medianRelErrPct(test.map(l.deployed.predict), actual)
    val defaultErr = medianRelErrPct(test.map(_.defaultCost), actual)
    if (!(err < defaultErr))
      problems += f"combined model's day-3 median error $err%.2f%% is not below the default model's $defaultErr%.2f%%"
    (problems.result(), err, defaultErr)
  }

  /** Median of |pred − actual| / actual, in percent. */
  def medianRelErrPct(pred: Seq[Double], actual: Seq[Double]): Double =
    Stats.median(pred.indices.map(i => math.abs(pred(i) - actual(i)) / math.max(1e-6, math.abs(actual(i))))) * 100

  /** Java-serialized size of a model bundle, in bytes. */
  def serializedBytes(set: CleoModelSet): Long = {
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(set)
    out.close()
    bytes.size().toLong
  }
}
