package perfbench

import java.io.{BufferedWriter, File, FileWriter}
import repro.core.{Partitioner, TopKQuery}

/** In-memory span log of the traced run, written out once at the end.
  *
  * A span is (id, parent id, kind, a, b, c, start ns, end ns). Ids start at
  * 1; parent 0 means a root. `a`/`b`/`c` are kind-specific integers (for a
  * slide: algorithm index, stream index, slide number) so recording a span
  * allocates nothing but amortized array growth.
  */
final class SpanLog {
  private var n = 0
  private var parent = new Array[Int](1 << 16)
  private var kind = new Array[Byte](1 << 16)
  private var a = new Array[Int](1 << 16)
  private var b = new Array[Int](1 << 16)
  private var c = new Array[Int](1 << 16)
  private var start = new Array[Long](1 << 16)
  private var end = new Array[Long](1 << 16)

  def size: Int = n

  /** Opens a span and returns its id; close it with `close`. */
  def open(k: Int, par: Int, x: Int, y: Int, z: Int, startNs: Long): Int = {
    if (n == parent.length) grow()
    parent(n) = par; kind(n) = k.toByte; a(n) = x; b(n) = y; c(n) = z
    start(n) = startNs; end(n) = startNs
    n += 1
    n
  }

  def close(id: Int, endNs: Long): Unit = end(id - 1) = endNs

  def add(k: Int, par: Int, x: Int, y: Int, z: Int, startNs: Long, endNs: Long): Int = {
    val id = open(k, par, x, y, z, startNs)
    close(id, endNs)
    id
  }

  private def grow(): Unit = {
    val m = parent.length * 2
    parent = java.util.Arrays.copyOf(parent, m); kind = java.util.Arrays.copyOf(kind, m)
    a = java.util.Arrays.copyOf(a, m); b = java.util.Arrays.copyOf(b, m)
    c = java.util.Arrays.copyOf(c, m)
    start = java.util.Arrays.copyOf(start, m); end = java.util.Arrays.copyOf(end, m)
  }

  /** Writes one CSV row per span; `label(kind, a, b, c)` names the span. */
  def write(file: File, label: (Int, Int, Int, Int) => String): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new FileWriter(file))
    try {
      w.write("id,parent,name,start_ns,end_ns\n")
      var i = 0
      while (i < n) {
        w.write(s"${i + 1},${parent(i)},${label(kind(i), a(i), b(i), c(i))},${start(i)},${end(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

object SpanKind {
  val Run = 0      // a: workload-level root
  val Pass = 1     // a: algorithm index, b: pass number
  val Slide = 2    // a: algorithm index, b: stream index, c: slide number
  val Join = 3     // a: 1 if the unit joined the partition
  val Snapshot = 4 // a: stream index, b: slide number, c: state bytes
  val Layer = 5    // a: layer replay index
  val SparkJob = 6 // a: Spark job id
  val SparkStage = 7
  val SparkTask = 8
}

/** Delegating partitioner that counts and times the WRT join decisions of
  * the wrapped partitioner, and records each as a span under the slide
  * being processed.
  */
final class TracedPartitioner(inner: Partitioner, @transient val probe: JoinProbe)
    extends Partitioner {
  override def unitSize(q: TopKQuery): Int = inner.unitSize(q)
  override def useTbui: Boolean = inner.useTbui

  override def join(q: TopKQuery, curSize: Int, mergedTopK: Array[Double],
                    historyTopEtaK: Array[Double]): Boolean = {
    val t0 = System.nanoTime()
    val r = inner.join(q, curSize, mergedTopK, historyTopEtaK)
    val t1 = System.nanoTime()
    probe.record(r, t0, t1)
    r
  }
}

/** Counters and span hook shared by every [[TracedPartitioner]] of a run. */
final class JoinProbe(spans: SpanLog) {
  var calls = 0L
  var accepted = 0L
  var nanos = 0L
  /** Id of the slide span currently open, the parent of join spans. */
  var slideSpan = 0

  def record(joined: Boolean, t0: Long, t1: Long): Unit = {
    calls += 1
    if (joined) accepted += 1
    nanos += t1 - t0
    spans.add(SpanKind.Join, slideSpan, if (joined) 1 else 0, 0, 0, t0, t1)
  }
}
