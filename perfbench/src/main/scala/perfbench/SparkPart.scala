package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.TopKQuery
import repro.spark.{SparkTopK, TopKRow}
import repro.stream.StreamData
import scala.collection.mutable.ArrayBuffer

/** Task-level record kept by [[SparkStats]]. */
final case class TaskRec(stageId: Int, taskId: Long, launch: Long, finish: Long,
                         runMs: Long, cpuNs: Long, gcMs: Long, shuffleWrite: Long,
                         fetchWaitMs: Long, recordsRead: Long)

/** Listener the benchmark registers to see jobs, stages and tasks. */
final class SparkStats extends SparkListener {
  val jobs = ArrayBuffer[(Int, Long, Long)]()            // (job, submit ms, end ms)
  val stageJob = scala.collection.mutable.Map[Int, Int]()
  val stages = ArrayBuffer[(Int, Long, Long)]()          // (stage, submit ms, end ms)
  val tasks = ArrayBuffer[TaskRec]()
  private val jobStart = scala.collection.mutable.Map[Int, Long]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs += ((e.jobId, jobStart.getOrElse(e.jobId, e.time), e.time))
    notifyAll()
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    stages += ((i.stageId, i.submissionTime.getOrElse(0L), i.completionTime.getOrElse(0L)))
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null)
      tasks += TaskRec(e.stageId, e.taskInfo.taskId, e.taskInfo.launchTime, e.taskInfo.finishTime,
        m.executorRunTime, m.executorCpuTime, m.jvmGCTime,
        m.shuffleWriteMetrics.bytesWritten, m.shuffleReadMetrics.fetchWaitTime,
        m.shuffleReadMetrics.recordsRead)
  }

  /** Blocks until the listener bus has delivered the end of every job. */
  def awaitJobs(ids: Seq[Int]): Unit = synchronized {
    val deadline = System.currentTimeMillis() + 30_000
    while (!ids.forall(id => jobs.exists(_._1 == id)) && System.currentTimeMillis() < deadline)
      wait(100)
  }
}

/** The Spark side of the `spark-multiquery` workload: all queries as one
  * DataFrame, driven through `SparkTopK.continuousTopK` on local[4].
  */
final class SparkPart(streams: Seq[Stream], q: TopKQuery, localDir: String) {
  val spark: SparkSession = SparkSession.builder
    .master("local[4]")
    .appName("perfbench")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", localDir)
    .config("spark.sql.warehouse.dir", localDir + "/warehouse")
    // Fixed reduce layout: adaptive coalescing would group the queries by
    // their shuffle sizes, which vary with the seed, and with them the
    // job's slowest task.
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
    .getOrCreate()
  spark.sparkContext.setLogLevel("ERROR")

  val stats = new SparkStats
  spark.sparkContext.addSparkListener(stats)

  val inputEvents: Long = streams.map(_.slides.toLong * q.s).sum

  /** The input, generated on the executors from (dataset, seed) and cached,
    * so every timed job reads the same in-memory rows.
    */
  val input: DataFrame = {
    import spark.implicits._
    val size = streams.head.events.length
    val specs = streams.zipWithIndex.map { case (s, i) => (i, s.dataset, s.seed) }
    val df = spark.sparkContext.parallelize(specs, specs.size)
      .flatMap { case (qid, ds, seed) =>
        StreamData.byName(ds).generate(size, seed).iterator.map(e => (qid, e.t, e.score))
      }
      .toDF("queryId", "t", "score")
      .cache()
    df.count()
    df
  }

  private val queries: Map[Int, TopKQuery] = streams.indices.map(_ -> q).toMap

  private def operator(): DataFrame =
    SparkTopK.continuousTopK(spark, input, queries, Algos.sap.make)

  /** One timed run of the operator, its output written to the no-op sink.
    * Returns the ids of the Spark jobs it ran and its wall time in ns.
    */
  def timedRun(group: String): (Seq[Int], Long) = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    val t0 = System.nanoTime()
    operator().write.format("noop").mode("overwrite").save()
    val wall = System.nanoTime() - t0
    val ids = sc.statusTracker.getJobIdsForGroup(group).toSeq.sorted
    sc.clearJobGroup()
    stats.awaitJobs(ids)
    (ids, wall)
  }

  /** Per query: (rows, xor of row hashes, sum of the hashes' top 31 bits).
    * XOR and the 31-bit sum cannot overflow, unlike a SQL `sum` of 64-bit
    * hashes under ANSI mode.
    */
  def outputDigests(): Map[Int, (Long, Long, Long)] = {
    import spark.implicits._
    operator().as[TopKRow].mapPartitions { rows =>
      val acc = scala.collection.mutable.Map[Int, (Long, Long, Long)]()
      rows.foreach { r =>
        val h = SparkPart.rowHash(r.queryId, r.wid, r.rank, r.t, r.score)
        val (c, x, s) = acc.getOrElse(r.queryId, (0L, 0L, 0L))
        acc(r.queryId) = (c + 1, x ^ h, s + (h >>> 33))
      }
      acc.iterator
    }.collect().groupMapReduce(_._1)(_._2) { case ((c1, x1, s1), (c2, x2, s2)) =>
      (c1 + c2, x1 ^ x2, s1 + s2)
    }
  }

  /** The same digest over the brute-force answers of stream `qid`. */
  def expectedDigest(qid: Int): (Long, Long, Long) = {
    val st = streams(qid)
    var x = 0L; var s = 0L
    var a = 0
    while (a < st.answers) {
      var r = 0
      while (r < q.k) {
        val t = st.refT(a * q.k + r)
        val h = SparkPart.rowHash(qid, a + 1L, r + 1, t, st.events((t - 1).toInt).score)
        x ^= h; s += h >>> 33
        r += 1
      }
      a += 1
    }
    (st.answers.toLong * q.k, x, s)
  }

  def stop(): Unit = spark.stop()
}

object SparkPart {
  /** 64-bit mix of one output row (splitmix64 finalizer per field). */
  def rowHash(qid: Int, wid: Long, rank: Int, t: Long, score: Double): Long = {
    var h = 0x9E3779B97F4A7C15L
    h = mix(h ^ qid); h = mix(h ^ wid); h = mix(h ^ rank); h = mix(h ^ t)
    mix(h ^ java.lang.Double.doubleToLongBits(score))
  }

  private def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}
