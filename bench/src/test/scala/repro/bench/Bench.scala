package repro.bench

import repro.baselines.{BruteForce, KSkyband, MinTopK, Sma}
import repro.core._
import repro.stream.{RunMetrics, SlideRunner, StreamData}
import scala.collection.mutable

/** Shared benchmark harness for the table suites.
  *
  * The paper streams 10⁶–10⁸ objects through a C++ implementation; we
  * stream |D| = 120k (regular tables) / 240k (high-speed tables) objects
  * through the JVM with n, k, s at the paper's ratios — see DESIGN.md §4.
  * Runs are memoized so tables sharing cells (3/6/8 and 5/7/9) measure each
  * configuration once; in every regular-scale cell the algorithms' answers
  * are digest-checked against brute force.
  */
object Bench {
  /** Regular-speed dataset size (Tables 2, 3, 6, 8). */
  val RegularD = 120_000
  /** High-speed dataset size (Tables 5, 7, 9). */
  val HighD = 240_000

  // Regular-speed sweeps (defaults bolded in the paper: n=2%|D| here,
  // k=100, s=1%n — the paper's 0.1%|D|, 100, 0.1%n at its |D|).
  val RegN = Seq(600, 1200, 2400, 4800) // 0.5%..4% of |D|
  val RegK = Seq(10, 50, 100, 250, 500)
  val RegS: Int => Seq[Int] = n => Seq(math.max(1, n / 1000), n / 100, n / 20, n / 10)
  val RegDefault: (Int, Int, Int) = (2400, 100, 24)

  // High-speed sweeps (paper Table 4: n=10–50%|D|, k=500–50000, s≤10%n).
  val HighN = Seq(24_000, 48_000, 72_000, 96_000, 120_000)
  val HighK = Seq(500, 1000, 2500, 5000)
  val HighS: Int => Seq[Int] = n => Seq(n / 1000, n / 100, n / 50, n / 20, n / 10)
  val HighDefault: (Int, Int, Int) = (48_000, 1000, 960)

  val algoFactories: Map[String, TopKQuery => ContinuousTopK] = Map(
    "SAP" -> (q => new Sap(q, new EnhancedDynamicPartitioner, Formation.DelayedSAvl)),
    "DYNA" -> (q => new Sap(q, new DynamicPartitioner, Formation.DelayedSAvl)),
    "EQUAL" -> (q => new Sap(q, EqualPartitioner.atMStar(q), Formation.DelayedSAvl)),
    "minTopK" -> (q => new MinTopK(q)),
    "k-skyband" -> (q => new KSkyband(q)),
    "SMA" -> (q => new Sma(q)),
    "brute" -> (q => new BruteForce(q)),
  )

  /** Table labels for an `algoFactories` entry under another name: SAP is
    * EN-DYNA partitioning, so Table 3's EN-DYNA row reuses SAP's runs.
    */
  private val aliases: Map[String, String] = Map("EN-DYNA" -> "SAP")

  private val dataCache = mutable.Map[(String, Int), Array[Event]]()
  private val runCache = mutable.Map[(String, String, Int, Int, Int, Int), RunMetrics]()

  def data(ds: String, size: Int): Array[Event] =
    synchronized(dataCache.getOrElseUpdate((ds, size), StreamData.byName(ds).generate(size)))

  warmup()

  /** JIT warm-up: run every algorithm shape once on a small stream,
    * including the Table-2 formation variants.
    */
  private def warmup(): Unit = {
    val q = TopKQuery(400, 20, 4)
    val events = StreamData.TimeU.generate(4000)
    algoFactories.foreach { case (name, f) =>
      SlideRunner.run(f, name, "warmup", events, q)
    }
    Seq(Formation.EagerExact, Formation.DelayedExact, Formation.DelayedSAvl).foreach { form =>
      SlideRunner.run(qq => new Sap(qq, new EqualPartitioner(4), form),
        "warmup-eq", "warmup", events, q)
    }
  }

  /** Measure one (algorithm, dataset, |D|, n, k, s) cell, memoized. */
  def measure(algo: String, ds: String, size: Int, n: Int, k: Int, s: Int): RunMetrics = {
    val key = aliases.getOrElse(algo, algo)
    measureWith(key, algoFactories(key), ds, size, n, k, s)
  }

  /** Hypervisor steal ticks from /proc/stat (this box runs on oversubscribed
    * cloud hardware; the host steals the CPU for seconds at a time and the
    * guest kernel charges stolen time to the running task, polluting even
    * thread-CPU-time measurements).
    */
  private def stealTicks(): Long =
    try {
      val line = scala.io.Source.fromFile("/proc/stat").getLines().next()
      line.trim.split("\\s+").drop(1).lift(7).map(_.toLong).getOrElse(0L)
    } catch { case _: Throwable => 0L }

  /** Same, for ad-hoc configurations (e.g. Table 2's per-m variants).
    *
    * Timing is the *minimum thread-CPU time* over several runs, for two
    * reasons: (a) the first run of a configuration often executes partly
    * interpreted (the JIT warms per call-site shape), inflating cheap
    * cells 5–30×; (b) hypervisor steal bleeds into CPU-time accounting on
    * this guest, so a run overlapping a steal window is re-tried (up to a
    * bounded number of attempts — a long contention window eventually
    * wins, and the min simply reflects the least-disturbed attempt).
    * Candidate/memory metrics and the digest are deterministic per run.
    */
  def measureWith(key: String, factory: TopKQuery => ContinuousTopK,
                  ds: String, size: Int, n: Int, k: Int, s: Int): RunMetrics =
    synchronized(runCache.getOrElseUpdate((key, ds, size, n, k, s), {
      val q = TopKQuery(n, k, s)
      val events = data(ds, size)

      def attempt(): (RunMetrics, Long) = {
        val s0 = stealTicks()
        val m = SlideRunner.run(factory, key, ds, events, q)
        (m, stealTicks() - s0)
      }

      var best: RunMetrics = null
      var cleanRuns = 0
      var runs = 0
      var done = false
      while (!done && runs < 6) {
        val (m, st) = attempt()
        runs += 1
        if (best == null) best = m
        else {
          require(m.resultDigest == best.resultDigest, s"nondeterministic run at $key/$ds")
          if (m.cpuNanos < best.cpuNanos) best = m
        }
        // A "clean" attempt saw less machine-wide steal than 20% of its own
        // CPU time (1 tick = 10 ms). One clean attempt suffices for
        // expensive cells; cheap cells take the min of two (the first may
        // still be JIT-warming).
        val clean = st <= 2 || st * 10_000_000L < m.cpuNanos / 5
        if (clean) cleanRuns += 1
        done = cleanRuns >= 2 || (cleanRuns >= 1 && m.cpuNanos > 5_000_000_000L)
      }
      val m = best
      // grep-able machine row for EXPERIMENTS.md extraction
      println(f"RESULT\t$key\t$ds\t$size\t$n\t$k\t$s\t${m.seconds}%.3f\t" +
        f"${m.avgCandidates}%.1f\t${m.memoryKb}%.1f\t${m.resultDigest}\truns=$runs")
      m
    }))

  /** Assert all named algorithms produced identical results in this cell. */
  def checkAgreement(algos: Seq[String], ds: String, size: Int,
                     n: Int, k: Int, s: Int): Unit = {
    val digests = algos.map(a => a -> measure(a, ds, size, n, k, s).resultDigest)
    require(digests.map(_._2).distinct.size == 1,
      s"result divergence at ($ds n=$n k=$k s=$s): $digests")
  }

  // ------------------------------------------------------- table rendering

  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val widths = (header +: rows).transpose.map(col => col.map(_.length).max)
    def fmt(cells: Seq[String]): String =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println()
    println(s"=== $title ===")
    println(fmt(header))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(fmt(r)))
    println()
  }

  def sec(m: RunMetrics): String = f"${m.seconds}%.2f"
  def cnt(m: RunMetrics): String = f"${m.avgCandidates}%.0f"
  def kb(m: RunMetrics): String = f"${m.memoryKb}%.1f"

  /** The regular parameter grid of Tables 3/6/8: the n sweep, k sweep and
    * s sweep around the default point (deduplicated by the run cache).
    */
  def regularGrid: Seq[(Int, Int, Int)] = {
    val (n0, k0, s0) = RegDefault
    (RegN.map(n => (n, k0, n / 100)) ++
      RegK.map(k => (n0, k, s0)) ++
      RegS(n0).map(s => (n0, k0, s))).distinct
  }

  def highGrid: Seq[(Int, Int, Int)] = {
    val (n0, k0, s0) = HighDefault
    (HighN.map(n => (n, k0, n / 50)) ++
      HighK.map(k => (n0, k, s0)) ++
      HighS(n0).map(s => (n0, k0, s))).distinct
  }
}
