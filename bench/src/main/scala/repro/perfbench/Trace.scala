package repro.perfbench

import java.io.{BufferedWriter, FileWriter}
import scala.collection.mutable

/** In-memory span and counter recorder for the traced benchmark run.
  *
  * A span is (name, start, end, parent); spans nest by call order on the
  * recording thread. With tracing off, [[span]] only evaluates its body and
  * [[add]] does nothing, so the untraced run pays one branch per call.
  */
object Trace {

  var on: Boolean = false

  private val nameIds = mutable.HashMap.empty[String, Int]
  private val names = mutable.ArrayBuffer.empty[String]
  private var n = 0
  private var nameOf = new Array[Int](1 << 16)
  private var startOf = new Array[Long](1 << 16)
  private var endOf = new Array[Long](1 << 16)
  private var parentOf = new Array[Int](1 << 16)
  private var current = -1
  private val counters = mutable.LinkedHashMap.empty[String, Double]

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val id = open(name)
      try body
      finally close(id)
    }

  /** Adds `v` to a counter (traced run only). */
  def add(counter: String, v: Double): Unit =
    if (on) counters(counter) = counters.getOrElse(counter, 0.0) + v

  def counter(name: String): Double = counters.getOrElse(name, 0.0)

  private def open(name: String): Int = {
    if (n == nameOf.length) {
      val cap = n * 2
      nameOf = java.util.Arrays.copyOf(nameOf, cap)
      startOf = java.util.Arrays.copyOf(startOf, cap)
      endOf = java.util.Arrays.copyOf(endOf, cap)
      parentOf = java.util.Arrays.copyOf(parentOf, cap)
    }
    val id = n
    nameOf(id) = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })
    parentOf(id) = current
    current = id
    n += 1
    startOf(id) = System.nanoTime()
    id
  }

  private def close(id: Int): Unit = {
    endOf(id) = System.nanoTime()
    current = parentOf(id)
  }

  private var byName: Array[Array[Long]] = Array.empty
  private var byNameCount = -1

  /** Durations in nanoseconds of every closed span called `name`. The
    * grouping by name is computed once per set of recorded spans.
    */
  def durations(name: String): Array[Long] = nameIds.get(name) match {
    case None => Array.empty
    case Some(k) =>
      if (byNameCount != n) {
        val out = Array.fill(names.length)(mutable.ArrayBuilder.make[Long])
        var i = 0
        while (i < n) { out(nameOf(i)) += endOf(i) - startOf(i); i += 1 }
        byName = out.map(_.result())
        byNameCount = n
      }
      byName(k)
  }

  def count(name: String): Int = durations(name).length

  def totalNs(name: String): Long = durations(name).sum

  /** Mean duration of `name` spans in the given unit (1e3 = µs), 0 when absent. */
  def mean(name: String, nsPerUnit: Double): Double = {
    val d = durations(name)
    if (d.isEmpty) 0.0 else d.sum / nsPerUnit / d.length
  }

  /** Self time per span name: each span's duration minus its children's. */
  def selfNs: Seq[(String, Long)] = {
    val self = new Array[Long](names.length)
    var i = 0
    while (i < n) {
      val d = endOf(i) - startOf(i)
      self(nameOf(i)) += d
      if (parentOf(i) >= 0) self(nameOf(parentOf(i))) -= d
      i += 1
    }
    names.indices.map(k => names(k) -> self(k))
  }

  /** How much of the `root` spans' time the outermost layer spans inside
    * them cover: layer spans are those not named `bench.*`, and an outermost
    * one has a `bench.*` parent. Returns (covered ns, base ns).
    */
  def coverage(root: String): (Long, Long) = {
    val k = nameIds.getOrElse(root, -1)
    val bench = names.indices.filter(names(_).startsWith("bench.")).toSet
    def under(i: Int): Boolean = { var p = parentOf(i); while (p >= 0 && nameOf(p) != k) p = parentOf(p); p >= 0 }
    var covered = 0L; var base = 0L
    var i = 0
    while (i < n) {
      if (nameOf(i) == k) base += endOf(i) - startOf(i)
      else if (!bench(nameOf(i)) && parentOf(i) >= 0 && bench(nameOf(parentOf(i))) && under(i))
        covered += endOf(i) - startOf(i)
      i += 1
    }
    (covered, base)
  }

  /** Writes `{"names": [...], "spans": [[name, start_ns, end_ns, parent], ...]}`;
    * `name` indexes `names`, `parent` indexes `spans` (-1 for a root).
    */
  def writeJson(path: String): Unit = {
    val w = new BufferedWriter(new FileWriter(path), 1 << 20)
    try {
      w.write("{\"names\": [")
      w.write(names.map(Json.str).mkString(", "))
      w.write("],\n\"counters\": {")
      w.write(counters.map { case (k, v) => s"${Json.str(k)}: ${Json.num(v)}" }.mkString(", "))
      w.write("},\n\"spans\": [")
      var i = 0
      while (i < n) {
        if (i > 0) w.write(",\n")
        w.write(s"[${nameOf(i)}, ${startOf(i)}, ${endOf(i)}, ${parentOf(i)}]")
        i += 1
      }
      w.write("]}\n")
    } finally w.close()
  }

  def spanCount: Int = n
}

/** Minimal JSON rendering for the result line and the trace file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric is not a finite number: $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }
}
