package perfbench

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.lang.management.ManagementFactory
import repro.core.{ContinuousTopK, Event, Sap}
import repro.spark.StreamState
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** What one pass of one algorithm over every stream of a workload did. */
final class PassStats(val algo: Algo, streams: Seq[Stream]) {
  var events = 0L
  var cpuNs = 0L // driving thread's CPU time inside processSlide
  var attempted = 0L
  var failed = 0L
  var broken = false // some stream threw
  val busyNs = new Array[Long](streams.length) // CPU ns inside processSlide, per stream
  // Per slide of every stream, in order: CPU and wall ns inside processSlide.
  val slideCpu = new Array[Long](streams.map(_.slides).sum)
  val slideWall = new Array[Long](slideCpu.length)

  // Filled only when the pass samples (outside the clock).
  var samples = 0L
  var candSum = 0.0
  var memSum = 0.0
  var partSum = 0.0
  var sampleNs = 0L
  var stateBytes = 0L
  var stateCount = 0

  // Filled only when the pass is traced.
  var allocBytes = 0L
  var gcMs = 0L
  var snaps = 0
  var serNs = 0L
  var deserNs = 0L
  var snapBytes = 0L

  def eventsPerSec: Double = events / (cpuNs / 1e9)
}

/** Per-slide costs over several replays of each stream by one algorithm:
  * each slide counts with its cheapest replay. On a shared host a
  * neighbour slows whole stretches of a run by 10-30%; a slide's minimum
  * over replays spread across the run is its undisturbed cost, so these
  * estimates depend far less on when a neighbour was busy than per-pass
  * figures do.
  *
  * @param replays every stream with its replays; a replay covers that
  *                stream alone (or, for `ofPasses`, all streams)
  */
final class SlideProfile(replays: Seq[(Stream, Seq[PassStats])]) {
  private val perStream: Seq[(Stream, Array[Long], Array[Long])] = replays.map { case (st, rs) =>
    val ok = if (rs.forall(_.broken)) rs else rs.filterNot(_.broken) // all broken: counted as failed
    def minAt(f: PassStats => Array[Long], i: Int): Long = ok.iterator.map(p => f(p)(i)).min
    (st, Array.tabulate(st.slides)(minAt(_.slideCpu, _)), Array.tabulate(st.slides)(minAt(_.slideWall, _)))
  }
  val cpu: Array[Long] = perStream.flatMap(_._2).toArray
  val wall: Array[Long] = perStream.flatMap(_._3).toArray
  val events: Long = replays.map { case (s, _) => s.slides.toLong * s.q.s }.sum

  /** Wall ns of the answering slides only, sorted. */
  val answering: Array[Long] = {
    val a = perStream.flatMap { case (s, _, w) => w.drop(s.firstAnswer) }.toArray
    java.util.Arrays.sort(a)
    a
  }

  def eventsPerCpuSec: Double = events / (cpu.sum / 1e9)
  def eventsPerWallSec: Double = events / (wall.sum / 1e9)

  /** Nearest-rank percentile of the answering slides' wall time, in µs. */
  def latencyUs(p: Double): Double =
    answering(math.max(0, math.ceil(p * answering.length).toInt - 1)) / 1e3
}

object SlideProfile {
  /** Profile of passes that each covered all `streams`, in order. */
  def ofPasses(passes: Seq[PassStats], streams: Seq[Stream]): SlideProfile = {
    val offsets = streams.scanLeft(0)(_ + _.slides)
    new SlideProfile(streams.indices.map { i =>
      streams(i) -> passes.map { p =>
        val one = new PassStats(p.algo, Seq(streams(i)))
        System.arraycopy(p.slideCpu, offsets(i), one.slideCpu, 0, streams(i).slides)
        System.arraycopy(p.slideWall, offsets(i), one.slideWall, 0, streams(i).slides)
        one.broken = p.broken
        one
      }
    })
  }
}

/** Options of one pass; everything except `trace` happens outside the clock. */
final case class PassOpts(
    sample: Boolean = false,      // candidateCount/memoryBytes after every slide
    stateSize: Boolean = false,   // serialized StreamState size after the last slide
    corrupt: Boolean = false,     // corrupt the first answer (error-counter self-check)
    trace: TraceCtx = null,
)

/** Span context of a traced pass. */
final class TraceCtx(val spans: SpanLog, val probe: JoinProbe, val algoIdx: Int,
                     val passSpan: Int, val snapEvery: Int)

/** The benchmark's own slide loop: the clock covers `processSlide` only;
  * the answer check, metric sampling and state snapshots run outside it.
  */
object Replay {
  private val threads = ManagementFactory.getThreadMXBean
  private val allocs = threads.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  def pass(algo: Algo, make: repro.core.TopKQuery => ContinuousTopK,
           streams: Seq[Stream], opts: PassOpts = PassOpts()): PassStats = {
    val st = new PassStats(algo, streams)
    val tr = opts.trace
    val gc0 = gcMillis()
    var corruptPending = opts.corrupt
    var si = 0
    var slot = 0 // index of the current slide across all streams
    while (si < streams.length) {
      val stream = streams(si)
      val q = stream.q
      val inst = make(q)
      var broken = false
      var j = 0
      while (j < stream.slides) {
        val slide = java.util.Arrays.copyOfRange(stream.events, j * q.s, (j + 1) * q.s)
        var span = 0
        var a0 = 0L
        if (tr != null) {
          span = tr.spans.open(SpanKind.Slide, tr.passSpan, tr.algoIdx, si, j, System.nanoTime())
          tr.probe.slideSpan = span
          a0 = allocs.getCurrentThreadAllocatedBytes
        }
        var res: Option[Array[Event]] = None
        var threw = false
        val c0 = threads.getCurrentThreadCpuTime
        val w0 = System.nanoTime()
        if (!broken) {
          try res = inst.processSlide(slide)
          catch { case NonFatal(_) => threw = true }
        }
        val w1 = System.nanoTime()
        val c1 = threads.getCurrentThreadCpuTime
        if (tr != null) {
          st.allocBytes += allocs.getCurrentThreadAllocatedBytes - a0
          tr.spans.close(span, w1)
        }
        if (!broken) {
          st.cpuNs += c1 - c0
          st.busyNs(si) += c1 - c0
          st.slideCpu(slot) = c1 - c0
          st.slideWall(slot) = w1 - w0
          st.events += q.s
        }
        if (threw) { broken = true; st.broken = true }

        val answering = j >= stream.firstAnswer
        if (answering || res.isDefined) {
          st.attempted += 1
          val ok = answering && !broken && (res match {
            case Some(arr) =>
              if (corruptPending) { corrupt(arr); corruptPending = false }
              matches(arr, stream, j - stream.firstAnswer)
            case None => false
          })
          if (!ok) st.failed += 1
        }

        if (opts.sample && !broken) {
          val t0 = System.nanoTime()
          st.candSum += inst.candidateCount
          st.memSum += inst.memoryBytes
          st.sampleNs += System.nanoTime() - t0
          inst match {
            case sap: Sap => st.partSum += sap.partitionCount
            case _        =>
          }
          st.samples += 1
        }
        if (tr != null && tr.snapEvery > 0 && !broken && (j + 1) % tr.snapEvery == 0)
          snapshot(st, tr, span, si, j, inst, j - stream.firstAnswer + 1)
        j += 1
        slot += 1
      }
      if (opts.stateSize && !broken) {
        st.stateBytes += serialize(inst, stream.answers).length
        st.stateCount += 1
      }
      si += 1
    }
    if (tr != null) st.gcMs = gcMillis() - gc0
    st
  }

  /** The emitted answer equals the brute-force one: same k events, in the
    * same best-first order, with their original scores.
    */
  private def matches(arr: Array[Event], stream: Stream, answer: Int): Boolean = {
    val k = stream.q.k
    if (arr.length != k) return false
    val base = answer * k
    var i = 0
    while (i < k) {
      val e = arr(i)
      val t = stream.refT(base + i)
      if (e == null || e.t != t || e.score != stream.events((t - 1).toInt).score) return false
      i += 1
    }
    true
  }

  /** Deliberately wrong answer: the best result's score is changed. */
  private def corrupt(arr: Array[Event]): Unit =
    if (arr.nonEmpty) arr(0) = Event(arr(0).t, arr(0).score + 1.0)

  /** The per-query state the Structured Streaming operator persists:
    * the algorithm plus an empty partial slide and the window counter.
    */
  def serialize(inst: ContinuousTopK, wid: Long): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(new StreamState(inst, Array.empty, wid))
    oos.close()
    bos.toByteArray
  }

  private def snapshot(st: PassStats, tr: TraceCtx, parent: Int, si: Int, j: Int,
                       inst: ContinuousTopK, wid: Long): Unit = {
    val t0 = System.nanoTime()
    val bytes = serialize(inst, wid)
    val t1 = System.nanoTime()
    new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject()
    val t2 = System.nanoTime()
    st.snaps += 1
    st.serNs += t1 - t0
    st.deserNs += t2 - t1
    st.snapBytes += bytes.length
    tr.spans.add(SpanKind.Snapshot, parent, si, j, bytes.length, t0, t2)
  }
}
