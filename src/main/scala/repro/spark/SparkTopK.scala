package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.{ContinuousTopK, Event, SlideDriver, TopKQuery}
import scala.collection.mutable.ArrayBuffer

/** One emitted result row: window `wid` (1-based; window `wid` covers
  * arrivals t ∈ [(wid−1)·s + 1, (wid−1)·s + n]) and the rank-th best event.
  */
final case class TopKRow(queryId: Int, wid: Long, rank: Int, t: Long, score: Double)

/** The batch (replay) form of the continuous top-k operator.
  *
  * Input: a DataFrame of events `(queryId INT, t LONG, score DOUBLE)`; each
  * query's events are shuffled to one task (`groupByKey` over Catalyst),
  * sorted by arrival order, and driven through the chosen sequential state
  * machine by the shared [[SlideDriver]], which fails the job if a query's
  * arrival orders are not 1, 2, 3, … Multiple concurrent queries
  * parallelize across cores. Output is a DataFrame of [[TopKRow]] verified
  * row-for-row against DuckDB window functions in the test suite.
  */
object SparkTopK {

  def continuousTopK(
      spark: SparkSession,
      events: DataFrame,
      queries: Map[Int, TopKQuery],
      factory: TopKQuery => ContinuousTopK,
  ): DataFrame = {
    import spark.implicits._
    val ds: Dataset[(Int, Long, Double)] = events
      .selectExpr("cast(queryId as int)", "cast(t as long)", "cast(score as double)")
      .as[(Int, Long, Double)]
    ds.groupByKey(_._1)
      .flatMapGroups { (qid: Int, rows: Iterator[(Int, Long, Double)]) =>
        val q = queries(qid)
        val evs = rows.map { case (_, t, s) => Event(t, s) }.toArray
        java.util.Arrays.sort(evs, Ordering.by[Event, Long](_.t))
        runReplay(qid, q, evs, factory)
      }
      .toDF()
  }

  /** Drive `events` (sorted by t) through a fresh state machine, emitting
    * one row per (window, rank).
    */
  private[spark] def runReplay(
      qid: Int, q: TopKQuery, events: Array[Event],
      factory: TopKQuery => ContinuousTopK,
  ): Iterator[TopKRow] = {
    val out = ArrayBuffer[TopKRow]()
    feedRows(qid, new SlideDriver(factory(q)), events, out)
    out.iterator
  }

  /** Feeds `events` through `driver`, appending one row per (window, rank)
    * to `out`. Returns the number of events fed.
    */
  private[spark] def feedRows(qid: Int, driver: SlideDriver, events: Array[Event],
                              out: ArrayBuffer[TopKRow]): Int =
    driver.feed(events) { (wid, res) =>
      var r = 0
      while (r < res.length) {
        out += TopKRow(qid, wid, r + 1, res(r).t, res(r).score)
        r += 1
      }
    }
}
