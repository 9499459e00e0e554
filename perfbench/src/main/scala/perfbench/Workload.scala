package perfbench

import repro.baselines.{KSkyband, MinTopK, Sma}
import repro.core._
import repro.stream.StreamData

/** A continuous top-k algorithm under test, registered once by name. */
final case class Algo(name: String, make: TopKQuery => ContinuousTopK)

object Algos {
  val sapPartitioner: () => Partitioner = () => new EnhancedDynamicPartitioner

  val sap      = Algo("sap", q => new Sap(q, sapPartitioner(), Formation.DelayedSAvl))
  val equal    = Algo("equal", q => new Sap(q, EqualPartitioner.atMStar(q), Formation.DelayedSAvl))
  val mintopk  = Algo("mintopk", q => new MinTopK(q))
  val kskyband = Algo("kskyband", q => new KSkyband(q))
  val sma      = Algo("sma", q => new Sma(q))

  val all: Seq[Algo] = Seq(sap, equal, mintopk, kskyband, sma)
}

/** One replayed stream with its brute-force answers.
  *
  * `refT` holds, for every answering slide in order, the arrival orders of
  * the window's top-k, best-first. Events carry dense arrival orders
  * t = 1..|D|, so the score of t is `events(t - 1).score`.
  */
final class Stream(val dataset: String, val seed: Long, val events: Array[Event],
                   val q: TopKQuery) {
  val slides: Int = events.length / q.s
  /** 0-based index of the first slide after which the window is full. */
  val firstAnswer: Int = q.n / q.s - 1
  val answers: Int = slides - firstAnswer
  val refT: Array[Long] = Reference.answers(events, q)

}

/** A named benchmark workload: its streams' shape, the algorithms its
  * traced run adds to SAP, and the share of the timed part that goes to
  * Spark runs (0: no Spark).
  *
  * Datasets whose generator ignores the seed (TIMER: F(o) = sin(πt/P)) are
  * identical on every seed; see BENCHMARK.json.
  */
final case class Workload(
    name: String,
    size: Int,
    query: TopKQuery,
    streamSpecs: Long => Seq[(String, Long)], // seed => (dataset, generator seed)
    traced: Seq[Algo],
    sparkShare: Double,
) {
  /** Generates every stream and its brute-force answers, one stream per
    * task on a pool of at most 4 threads.
    */
  def streams(seed: Long): Seq[Stream] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(
      math.min(4, Runtime.getRuntime.availableProcessors()))
    try {
      val tasks = streamSpecs(seed).map { case (ds, s) =>
        pool.submit(() => new Stream(ds, s, StreamData.byName(ds).generate(size, s), query))
      }
      tasks.map(_.get())
    } finally pool.shutdown()
  }
}

object Workload {
  private val five: Long => Seq[(String, Long)] =
    seed => StreamData.all.map(d => (d.name, seed))

  /** Eight distinct (dataset, seed) streams: the five datasets at the run
    * seed plus three seeded datasets at the next seed. TIMER is not repeated
    * because its generator ignores the seed.
    */
  private val eight: Long => Seq[(String, Long)] =
    seed => five(seed) ++ Seq("STOCK", "TRIP", "TIMEU").map(d => (d, seed + 1))

  /** @param small a reduced size used by the self-check. */
  def byName(name: String, small: Boolean): Workload = {
    val div = if (small) 20 else 1
    name match {
      case "regular" =>
        Workload(name, 120_000 / div, TopKQuery(2400, 100, 24), five,
          Seq(Algos.equal, Algos.mintopk, Algos.kskyband, Algos.sma), sparkShare = 0.0)
      case "highspeed" =>
        val q = if (small) TopKQuery(4800, 100, 96) else TopKQuery(48_000, 1000, 960)
        Workload(name, 240_000 / div, q, five, Seq(Algos.equal, Algos.mintopk), sparkShare = 0.0)
      case "spark-multiquery" =>
        Workload(name, 120_000 / div, TopKQuery(2400, 100, 24), eight,
          Seq(Algos.equal, Algos.mintopk), sparkShare = 0.3)
      case other => throw new IllegalArgumentException(s"unknown workload '$other'")
    }
  }
}

/** Exact per-slide recomputation used as the reference every emitted answer
  * is compared to: a full scan of the window on every slide, keeping the
  * best k in a primitive min-heap. Independent of the repository's
  * algorithms and tree structures; the self-check compares it to
  * `repro.baselines.BruteForce`.
  */
object Reference {
  def answers(events: Array[Event], q: TopKQuery): Array[Long] = {
    val sc = events.map(_.score)
    val k = q.k
    val slides = events.length / q.s
    val first = q.n / q.s - 1
    val out = new Array[Long](math.max(0, slides - first) * k)
    val heap = new Array[Int](k) // window indices, min-heap on (score, index)
    @inline def gt(i: Int, j: Int): Boolean = sc(i) > sc(j) || (sc(i) == sc(j) && i > j)
    def siftDown(size: Int): Unit = {
      var p = 0
      var done = false
      while (!done) {
        val l = 2 * p + 1
        if (l >= size) done = true
        else {
          val c = if (l + 1 < size && gt(heap(l), heap(l + 1))) l + 1 else l
          if (gt(heap(p), heap(c))) { val x = heap(p); heap(p) = heap(c); heap(c) = x; p = c }
          else done = true
        }
      }
    }
    var j = first
    var base = 0
    while (j < slides) {
      val end = (j + 1) * q.s
      var size = 0
      var i = end - q.n
      while (i < end) {
        if (size < k) {
          heap(size) = i
          var c = size
          size += 1
          while (c > 0 && gt(heap((c - 1) / 2), heap(c))) {
            val p = (c - 1) / 2
            val x = heap(p); heap(p) = heap(c); heap(c) = x; c = p
          }
        } else if (gt(i, heap(0))) { heap(0) = i; siftDown(size) }
        i += 1
      }
      // Pop ascending, writing best-first from the back.
      var r = size - 1
      while (size > 0) {
        out(base + r) = heap(0) + 1L
        size -= 1
        heap(0) = heap(size)
        siftDown(size)
        r -= 1
      }
      base += k
      j += 1
    }
    out
  }
}
