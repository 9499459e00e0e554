package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{BruteForce, KSkyband}
import repro.core._

/** Metrics harness behaviour. */
class SlideRunnerSpec extends AnyFunSuite {

  private val q = TopKQuery(100, 5, 10)
  private val events = StreamData.TimeU.generate(1000)

  test("digest is deterministic and sensitive to results") {
    val a = SlideRunner.run(qq => new BruteForce(qq), "a", "d", events, q)
    val b = SlideRunner.run(qq => new BruteForce(qq), "b", "d", events, q)
    assert(a.resultDigest == b.resultDigest)
    val other = SlideRunner.run(qq => new BruteForce(qq), "c", "d",
      StreamData.TimeU.generate(1000, seed = 2), q)
    assert(a.resultDigest != other.resultDigest)
  }

  test("window count: (usable - n)/s + 1") {
    val m = SlideRunner.run(qq => new BruteForce(qq), "a", "d", events, q)
    assert(m.windows == (1000 - q.n) / q.s + 1)
  }

  test("trailing partial slides are dropped") {
    val m = SlideRunner.run(qq => new BruteForce(qq), "a", "d",
      StreamData.TimeU.generate(1007), q)
    assert(m.windows == (1000 - q.n) / q.s + 1)
  }

  test("candidate/memory metrics are sampled") {
    val m = SlideRunner.run(qq => new KSkyband(qq), "sky", "d", events, q)
    assert(m.avgCandidates > 0 && m.peakCandidates >= m.avgCandidates)
    assert(m.avgMemoryBytes > 0 && m.peakMemoryBytes >= m.avgMemoryBytes.toLong)
    assert(m.memoryKb == m.avgMemoryBytes / 1024.0)
  }

  test("runAllChecked rejects diverging algorithms") {
    // An intentionally wrong "algorithm": always returns the slide's top-k.
    final class Wrong(val query: TopKQuery) extends ContinuousTopK {
      private var seen = 0L
      def processSlide(ev: Array[Event]): Option[Array[Event]] = {
        seen += ev.length
        if (seen < query.n) None
        else Some(ev.sorted(Event.desc).take(query.k))
      }
      def candidateCount = 0
      def memoryBytes = 0L
    }
    assertThrows[IllegalArgumentException] {
      SlideRunner.runAllChecked(
        Seq("brute" -> (qq => new BruteForce(qq)), "wrong" -> (qq => new Wrong(qq))),
        "d", events, q)
    }
  }

  test("the clock covers processSlide only, not metric sampling") {
    val cpuBean = java.lang.management.ManagementFactory.getThreadMXBean
    // processSlide is trivial; candidateCount burns ~200 µs of thread CPU.
    final class SlowSampling(val query: TopKQuery) extends ContinuousTopK {
      var spinNanos = 0L
      private var seen = 0L
      def processSlide(ev: Array[Event]): Option[Array[Event]] = {
        seen += ev.length
        if (seen < query.n) None else Some(ev.take(query.k))
      }
      def candidateCount: Int = {
        val c0 = cpuBean.getCurrentThreadCpuTime
        var c = c0
        while (c - c0 < 200_000L) c = cpuBean.getCurrentThreadCpuTime
        spinNanos += c - c0
        0
      }
      def memoryBytes = 0L
    }
    var algo: SlowSampling = null
    val m = SlideRunner.run(qq => { algo = new SlowSampling(qq); algo }, "slow", "d", events, q)
    assert(algo.spinNanos >= 100 * 200_000L)
    assert(m.cpuNanos < algo.spinNanos / 4,
      s"cpuNanos=${m.cpuNanos} includes sampling (spin total ${algo.spinNanos})")
  }

  private def rejected(stream: Array[Event], badT: Long): Unit = {
    val e = intercept[IllegalArgumentException] {
      SlideRunner.run(qq => new BruteForce(qq), "a", "d", stream, q)
    }
    assert(e.getMessage.contains(s"t=$badT") && e.getMessage.contains(q.toString), e.getMessage)
  }

  test("gapped arrival orders are rejected") {
    rejected(events.map(e => Event(2 * e.t, e.score)), badT = 2)
    rejected(events.take(150) ++ events.drop(151), badT = 152)
  }

  test("duplicate arrival orders are rejected") {
    rejected(events.take(150) ++ events.drop(149), badT = 150)
  }
}
