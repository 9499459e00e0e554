package perfbench

import java.io.File
import repro.baselines.BruteForce
import repro.core.{Formation, Sap}
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Continuous top-k benchmark: one workload per invocation.
  *
  * {{{
  * Main --workload <regular|highspeed|spark-multiquery> --seed <n>
  *      --seconds <s> --trace <0|1> [--small 1] [--corrupt 1]
  * }}}
  *
  * Set-up (stream generation, brute-force answers, one warm-up pass per
  * algorithm that also samples candidates, memory and state size, Spark
  * start) runs before any clock and is reported as `setup_s`. The timed
  * part replays every stream in a closed loop (the next slide is fed when
  * `processSlide` returns) for `--seconds`, split between SAP and the Spark
  * runs by fixed shares. Every emitted answer is compared to brute force.
  *
  * The last stdout line is the JSON result: the end-to-end metrics with
  * `--trace 0`, the per-layer metrics with `--trace 1`. `--small` shrinks
  * every stream for the self-check; `--corrupt` falsifies one SAP answer
  * to prove the error counter counts it.
  */
object Main {
  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        small: Boolean, corrupt: Boolean)

  def main(argv: Array[String]): Unit = {
    val code =
      try { run(parse(argv)); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    System.exit(code) // also ends Spark's non-daemon threads
  }

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def req(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(req("workload"), req("seed").toLong, req("seconds").toDouble,
      req("trace") == "1", m.get("small").contains("1"), m.get("corrupt").contains("1"))
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Checked slides across the whole run. */
  private var attempted = 0L
  private var failed = 0L
  private def count(p: PassStats): PassStats = { attempted += p.attempted; failed += p.failed; p }

  def run(a: Args): Unit = {
    val wl = Workload.byName(a.workload, a.small)
    val buildDir = new File(".bench_build")

    // ---------------------------------------------------------------- set-up
    val setupReps = 3
    var streams: Seq[Stream] = Nil
    val repNs = (1 to setupReps).map { _ =>
      val t0 = System.nanoTime()
      streams = wl.streams(a.seed)
      (System.nanoTime() - t0).toDouble
    }
    var setupNs = median(repNs)
    if (a.small) { // the reference itself against the repository's oracle
      val brute = Algo("brute", q => new BruteForce(q))
      count(Replay.pass(brute, brute.make, streams))
    }

    val t0 = System.nanoTime()
    val algos = Algos.sap +: (if (a.trace) wl.traced else Nil)
    // Warm-up: one full pass per algorithm, which also samples candidates,
    // memory and (SAP) state size outside the clock.
    val sampled: Map[String, PassStats] = algos.map { al =>
      al.name -> count(Replay.pass(al, al.make, streams, PassOpts(sample = true,
        stateSize = al == Algos.sap, corrupt = a.corrupt && al == Algos.sap)))
    }.toMap
    setupNs += System.nanoTime() - t0

    // ---------------------------------------------------------------- timed
    // Units (one stream replay, or one Spark run) repeat for a share of the
    // budget, and at least `minRounds` rounds of `units` each; a round is
    // never cut short.
    val budgetNs = a.seconds * 1e9
    val minRounds = 3
    def spend(share: Double, units: Int)(unit: Int => Unit): Unit = {
      System.gc()
      val t0 = System.nanoTime()
      var done = 0
      while (done % units != 0 || done < minRounds * units || System.nanoTime() - t0 < share * budgetNs) {
        unit(done % units)
        done += 1
      }
    }
    // SAP replays one stream at a time, so the replays of each stream spread
    // over the whole phase. The traced run's passes come later.
    val sapReplays = streams.map(_ => ArrayBuffer[PassStats]()).toIndexedSeq
    if (!a.trace) spend(1 - wl.sparkShare, streams.size) { i =>
      sapReplays(i) += count(Replay.pass(Algos.sap, Algos.sap.make, Seq(streams(i))))
    }

    // Spark starts after the sequential replays, whose clocks would
    // otherwise share the machine with its threads and garbage. Its start
    // and one warm-up run belong to the set-up. The traced run makes only
    // `minRounds` Spark runs, for the listener's numbers.
    val t1 = System.nanoTime()
    val spark =
      if (wl.sparkShare == 0) null
      else {
        val sp = new SparkPart(streams, wl.query, new File(buildDir, "spark-local").getAbsolutePath)
        val t2 = System.nanoTime()
        sp.timedRun("warmup")
        println(f"spark start and input cache ${(t2 - t1) / 1e9}%.2f s, warm-up run ${(System.nanoTime() - t2) / 1e9}%.2f s")
        sp
      }
    setupNs += System.nanoTime() - t1
    val sparkRuns = ArrayBuffer[(Seq[Int], Long)]()
    if (spark != null) spend(if (a.trace) 0 else wl.sparkShare, 1) { _ =>
      System.gc() // every job starts from the same heap state
      sparkRuns += spark.timedRun(s"timed-${sparkRuns.size}")
    }

    val digests = if (spark != null) spark.outputDigests() else Map.empty[Int, (Long, Long, Long)]
    if (spark != null) streams.indices.foreach { qid =>
      attempted += streams(qid).answers
      if (!digests.get(qid).contains(spark.expectedDigest(qid))) {
        failed += streams(qid).answers
        println(s"spark output of query $qid differs from brute force")
      }
    }

    val sapSampled = sampled(Algos.sap.name)
    println(s"workload ${wl.name} seed ${a.seed}: ${streams.size} streams x ${wl.size} events, " +
      s"query ${wl.query}, set-up reps ${repNs.map(x => f"${x / 1e9}%.3f").mkString(" ")} s")
    if (!a.trace) {
      val perRound = (0 until sapReplays.map(_.size).min).map { r =>
        sapReplays.map(_(r).events).sum / (sapReplays.map(_(r).cpuNs).sum / 1e9)
      }
      println(s"sap events/s per round ${perRound.map(x => f"$x%.0f").mkString(" ")}")
      println(s"sap latency samples: ${streams.map(_.answers).sum} answering slides, " +
        s"each the minimum of ${perRound.size}+ replays")
    }
    if (spark != null)
      println(s"spark runs ${sparkRuns.size} wall s ${sparkRuns.map(r => f"${r._2 / 1e9}%.3f").mkString(" ")}")
    println(s"checked $attempted answers, $failed wrong; slide_error_rate ${failed.toDouble / attempted}")

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) {
        val sap = new SlideProfile(streams.zip(sapReplays.map(_.toSeq)))
        Seq(
          ("setup_s", setupNs / 1e9, "s"),
          ("sap_events_per_s", sap.eventsPerCpuSec, "1/s"),
          ("sap_slide_p50_us", sap.latencyUs(0.50), "us"),
          ("sap_slide_p99_us", sap.latencyUs(0.99), "us"),
          ("sap_avg_candidates", sapSampled.candSum / sapSampled.samples, "count"),
          ("sap_memory_kb", sapSampled.memSum / sapSampled.samples / 1024, "KB"),
          ("sap_state_kb", sapSampled.stateBytes.toDouble / sapSampled.stateCount / 1024, "KB"),
          ("operator_events_per_s",
            if (spark != null) spark.inputEvents / (sparkRuns.map(_._2).min / 1e9)
            else sap.eventsPerWallSec, "1/s"),
        )
      } else traced(wl, streams, sampled, spark, sparkRuns.toSeq, digests, buildDir)

    if (spark != null) spark.stop()
    emit(failed == 0, metrics)
  }

  /** The traced run: one traced pass per algorithm, the tracing overhead,
    * the data-structure replays and the Spark listener's numbers.
    */
  private def traced(wl: Workload, streams: Seq[Stream], sampled: Map[String, PassStats],
                     spark: SparkPart, sparkRuns: Seq[(Seq[Int], Long)],
                     digests: Map[Int, (Long, Long, Long)], buildDir: File): Seq[(String, Double, String)] = {
    val spans = new SpanLog
    val probe = new JoinProbe(spans)
    val root = spans.open(SpanKind.Run, 0, 0, 0, 0, System.nanoTime())
    val algoIdx = Algos.all.zipWithIndex.toMap
    val tracedSap: repro.core.TopKQuery => Sap =
      q => new Sap(q, new TracedPartitioner(Algos.sapPartitioner(), probe), Formation.DelayedSAvl)
    var passNo = 0
    def tracedPass(al: Algo, snapshots: Boolean): PassStats = {
      passNo += 1
      val pass = spans.open(SpanKind.Pass, root, algoIdx(al), passNo, 0, System.nanoTime())
      val snapEvery = if (snapshots) math.max(1, streams.head.slides / 20) else 0
      val ctx = new TraceCtx(spans, probe, algoIdx(al), pass, snapEvery)
      val p = count(Replay.pass(al, if (al == Algos.sap) tracedSap else al.make, streams,
        PassOpts(trace = ctx)))
      spans.close(pass, System.nanoTime())
      p
    }
    val algos = Algos.sap +: wl.traced
    val tracedPasses = algos.map(al => al.name -> tracedPass(al, snapshots = al == Algos.sap)).toMap
    val joinCalls = probe.calls; val joinAccepted = probe.accepted; val joinNs = probe.nanos

    // Tracing overhead: untraced and traced SAP passes, alternating.
    val plain, withSpans = ArrayBuffer[PassStats]()
    (1 to 2).foreach { _ =>
      plain += count(Replay.pass(Algos.sap, Algos.sap.make, streams))
      withSpans += tracedPass(Algos.sap, snapshots = false)
    }

    val layers = Layers.run(streams, spans, root)

    val out = ArrayBuffer[(String, Double, String)]()
    val datasets = repro.stream.StreamData.all.map(_.name)
    Algos.all.foreach { al =>
      val p = tracedPasses.get(al.name)
      datasets.foreach { ds =>
        val ns = p.map(pp => streams.indices.filter(streams(_).dataset == ds).map(pp.busyNs(_)).sum)
        out += ((s"${al.name}.busy_ms.$ds", ns.getOrElse(0L) / 1e6, "ms"))
      }
      out += ((s"${al.name}.alloc_b_per_event", p.map(pp => pp.allocBytes.toDouble / pp.events).getOrElse(0.0), "B/event"))
      out += ((s"${al.name}.gc_ms", p.map(_.gcMs.toDouble).getOrElse(0.0), "ms"))
      if (al != Algos.sap)
        out += ((s"${al.name}.avg_candidates",
          sampled.get(al.name).map(s => s.candSum / s.samples).getOrElse(0.0), "count"))
    }
    val sapS = sampled(Algos.sap.name)
    val sapT = tracedPasses(Algos.sap.name)
    out += (("sap.avg_partitions", sapS.partSum / sapS.samples, "count"))
    out += (("partitioner.join_calls", joinCalls.toDouble, "count"))
    out += (("partitioner.join_accepted", joinAccepted.toDouble, "count"))
    out += (("partitioner.join_ms", joinNs / 1e6, "ms"))
    out += (("harness.sample_ms", sapS.sampleNs / 1e6, "ms"))
    out += (("state.serialize_ms", sapT.serNs / 1e6 / sapT.snaps, "ms"))
    out += (("state.deserialize_ms", sapT.deserNs / 1e6 / sapT.snaps, "ms"))
    out += (("state.bytes", sapT.snapBytes.toDouble / sapT.snaps, "B"))
    Layers.names.foreach(n => out += ((n, layers(n), if (n.endsWith("_us")) "us" else "ns")))
    out ++= sparkMetrics(spark, sparkRuns, digests, spans, root)
    out += (("slide_error_rate", failed.toDouble / attempted, "fraction"))
    val untracedRate = SlideProfile.ofPasses(plain.toSeq, streams).eventsPerCpuSec
    val tracedRate = SlideProfile.ofPasses(withSpans.toSeq, streams).eventsPerCpuSec
    out += (("trace.untraced_sap_events_per_s", untracedRate, "1/s"))
    out += (("trace.sap_events_per_s", tracedRate, "1/s"))
    out += (("trace.overhead_pct", (untracedRate / tracedRate - 1) * 100, "%"))
    spans.close(root, System.nanoTime())
    out += (("trace.spans", spans.size.toDouble, "count"))

    if (wl.traced.contains(Algos.kskyband)) {
      val c = (n: String) => sampled(n).candSum / sampled(n).samples
      val cpu = (n: String) => tracedPasses(n).cpuNs
      println(s"Table 6 order SAP < MinTopK < k-skyband: candidates " +
        s"${c("sap") < c("mintopk") && c("mintopk") < c("kskyband")}, " +
        s"time ${cpu("sap") < cpu("mintopk") && cpu("mintopk") < cpu("kskyband")}")
    }
    val file = new File(buildDir, s"trace/${wl.name}.spans.csv")
    val names = Algos.all.map(_.name)
    spans.write(file, (kind, x, y, z) => kind match {
      case SpanKind.Run        => s"run:${wl.name}"
      case SpanKind.Pass       => s"pass:${names(x)}:$y"
      case SpanKind.Slide      => s"processSlide:${names(x)}:${streams(y).dataset}:$z"
      case SpanKind.Join       => s"partitioner.join:${if (x == 1) "joined" else "finalized"}"
      case SpanKind.Snapshot   => s"state.snapshot:${streams(x).dataset}:$y:${z}B"
      case SpanKind.Layer      => s"replay:${Layers.replayNames(x)}"
      case SpanKind.SparkJob   => s"spark.job:$x"
      case SpanKind.SparkStage => s"spark.stage:$x"
      case _                   => s"spark.task:$x"
    })
    println(s"wrote ${spans.size} spans to ${file.getPath}; tracing overhead " +
      f"${(untracedRate / tracedRate - 1) * 100}%.1f%% of untraced sap_events_per_s")
    out.toSeq
  }

  private val sparkNames = Seq("spark.job_ms", "spark.task_p50_ms", "spark.task_max_ms",
    "spark.executor_run_ms", "spark.executor_cpu_ms", "spark.gc_ms",
    "spark.shuffle_write_bytes", "spark.shuffle_fetch_wait_ms", "spark.rows_out")

  /** Medians over the timed Spark runs of per-run listener totals; the
    * jobs, stages and tasks become spans under the run's root.
    */
  private def sparkMetrics(spark: SparkPart, runs: Seq[(Seq[Int], Long)],
                           digests: Map[Int, (Long, Long, Long)],
                           spans: SpanLog, root: Int): Seq[(String, Double, String)] = {
    val unit = (n: String) => if (n.endsWith("_bytes")) "B" else if (n.endsWith("rows_out")) "count" else "ms"
    if (spark == null || runs.isEmpty) return sparkNames.map(n => (n, 0.0, unit(n)))
    val st = spark.stats
    val offset = System.nanoTime() - System.currentTimeMillis() * 1000000L
    val ms2ns = (ms: Long) => ms * 1000000L + offset
    val perRun = st.synchronized {
      runs.map { case (ids, _) =>
        val jobs = st.jobs.filter(j => ids.contains(j._1))
        val stageIds = st.stageJob.collect { case (s, j) if ids.contains(j) => s }.toSet
        val tasks = st.tasks.filter(t => stageIds.contains(t.stageId))
        val opTasks = tasks.filter(_.recordsRead > 0).map(t => (t.finish - t.launch).toDouble).sorted
        jobs.foreach { case (jid, s0, s1) =>
          val js = spans.add(SpanKind.SparkJob, root, jid, 0, 0, ms2ns(s0), ms2ns(s1))
          st.stages.filter(s => st.stageJob.get(s._1).contains(jid)).foreach { case (sid, a0, a1) =>
            val ss = spans.add(SpanKind.SparkStage, js, sid, 0, 0, ms2ns(a0), ms2ns(a1))
            tasks.filter(_.stageId == sid).foreach { t =>
              spans.add(SpanKind.SparkTask, ss, t.taskId.toInt, 0, 0, ms2ns(t.launch), ms2ns(t.finish))
            }
          }
        }
        Seq(
          (jobs.map(_._3).max - jobs.map(_._2).min).toDouble,
          if (opTasks.isEmpty) 0.0 else opTasks(math.max(0, math.ceil(0.5 * opTasks.size).toInt - 1)),
          if (opTasks.isEmpty) 0.0 else opTasks.last,
          tasks.map(_.runMs).sum.toDouble,
          tasks.map(_.cpuNs).sum / 1e6,
          tasks.map(_.gcMs).sum.toDouble,
          tasks.map(_.shuffleWrite).sum.toDouble,
          tasks.map(_.fetchWaitMs).sum.toDouble)
      }
    }
    val medians = perRun.transpose.map(median)
    sparkNames.zip(medians :+ digests.values.map(_._1).sum.toDouble).map { case (n, v) => (n, v, unit(n)) }
  }

  /** Prints the result line: the last line of stdout. */
  private def emit(correct: Boolean, metrics: Seq[(String, Double, String)]): Unit = {
    val bad = metrics.filter(m => m._2.isNaN || m._2.isInfinite)
    require(bad.isEmpty, s"metrics without a value: ${bad.map(_._1).mkString(", ")}")
    val body = metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
  }
}
