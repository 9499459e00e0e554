package repro.spark

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.stream.StreamData

/** The batch Dataset operator vs DuckDB window-function SQL. */
class SparkTopKSpec extends SparkSpec {

  private def factory: TopKQuery => ContinuousTopK =
    q => new Sap(q, new EnhancedDynamicPartitioner, Formation.DelayedSAvl)

  /** DuckDB reference: per window wid, rank events within
    * t ∈ [(wid−1)s+1, (wid−1)s+n] by (score, t) descending, keep rank ≤ k.
    */
  private def duckSql(n: Int, k: Int, s: Int): String =
    s"""
       |SELECT w.wid AS wid, r.rank AS rank, r.t AS t, r.score AS score
       |FROM (SELECT CAST(wid AS BIGINT) AS wid FROM windows) w
       |JOIN LATERAL (
       |  SELECT CAST(e.t AS BIGINT) AS t, CAST(e.score AS DOUBLE) AS score,
       |         CAST(row_number() OVER (
       |           ORDER BY CAST(e.score AS DOUBLE) DESC, CAST(e.t AS BIGINT) DESC
       |         ) AS INT) AS rank
       |  FROM events e
       |  WHERE CAST(e.t AS BIGINT) BETWEEN (w.wid-1)*$s + 1 AND (w.wid-1)*$s + $n
       |  ORDER BY rank
       |  LIMIT $k
       |) r ON true
       |""".stripMargin

  private def checkOperator(dsName: String, size: Int, n: Int, k: Int, s: Int): Unit = {
    val events = StreamData.byName(dsName).generate(size)
    val q = TopKQuery(n, k, s)
    val eventsDf = StreamData.toDf(spark, events).select(
      lit(0).as("queryId"), col("t"), col("score"))
    val result = SparkTopK.continuousTopK(spark, eventsDf, Map(0 -> q), factory)
      .select(col("wid"), col("rank"), col("t"), col("score"))
    val usable = (size / s) * s
    val nWindows = (usable - n) / s + 1
    val windowsDf = spark.range(1, nWindows + 1).toDF("wid")
    Oracle.assertEquivalent(
      result, duckSql(n, k, s),
      "events" -> StreamData.toDf(spark, events.take(usable)),
      "windows" -> windowsDf)
  }

  for (ds <- StreamData.all)
    test(s"operator matches DuckDB on ${ds.name} (n=120, k=7, s=6)") {
      checkOperator(ds.name, size = 600, n = 120, k = 7, s = 6)
    }

  test("operator matches DuckDB with s = 1 (per-object sliding)") {
    checkOperator("TIMEU", size = 300, n = 60, k = 5, s = 1)
  }

  test("operator matches DuckDB with a large slide (s = n/2)") {
    checkOperator("STOCK", size = 600, n = 100, k = 10, s = 50)
  }

  test("operator matches DuckDB on the TPC-H-lite lineitem revenue stream") {
    val events = StreamData.lineitemStream(spark, sf = 0.0002)
    assert(events.length >= 400)
    val take = events.take(400)
    val q = TopKQuery(n = 80, k = 6, s = 8)
    val eventsDf = StreamData.toDf(spark, take).select(
      lit(0).as("queryId"), col("t"), col("score"))
    val result = SparkTopK.continuousTopK(spark, eventsDf, Map(0 -> q), factory)
      .select(col("wid"), col("rank"), col("t"), col("score"))
    val nWindows = (400 - q.n) / q.s + 1
    Oracle.assertEquivalent(
      result, duckSql(q.n, q.k, q.s),
      "events" -> StreamData.toDf(spark, take),
      "windows" -> spark.range(1, nWindows + 1).toDF("wid"))
  }

  test("multiple queries run concurrently and each matches the sequential replay") {
    val queries = Map(
      1 -> TopKQuery(100, 5, 10),
      2 -> TopKQuery(200, 10, 20),
      3 -> TopKQuery(60, 3, 6),
    )
    val streams = queries.keys.toSeq.sorted.map { qid =>
      qid -> StreamData.TimeU.generate(800, seed = qid.toLong)
    }
    val df = StreamData.multiQueryDf(spark, streams)
    val rows = SparkTopK.continuousTopK(spark, df, queries, factory)
      .collect()
      .map(r => (r.getInt(0), r.getLong(1), r.getInt(2), r.getLong(3), r.getDouble(4)))
      .toSet
    val expected = streams.flatMap { case (qid, evs) =>
      SparkTopK.runReplay(qid, queries(qid), evs, factory)
        .map(r => (r.queryId, r.wid, r.rank, r.t, r.score))
    }.toSet
    assert(rows == expected)
  }

  test("gapped and duplicate arrival orders fail the job") {
    val events = StreamData.TimeU.generate(300)
    val q = TopKQuery(60, 5, 6)
    def failure(stream: Array[Event]): String = {
      val df = StreamData.toDf(spark, stream).select(lit(0).as("queryId"), col("t"), col("score"))
      val e = intercept[Exception](SparkTopK.continuousTopK(spark, df, Map(0 -> q), factory).collect())
      Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString("\n")
    }
    assert(failure(events.take(100) ++ events.drop(101)).contains("arrival order t=102"))
    assert(failure(events.take(100) ++ events.drop(99)).contains("arrival order t=100"))
    assert(failure(events.updated(100, Event(101L, Double.NaN))).contains("NaN score at t=101"))
  }
}
