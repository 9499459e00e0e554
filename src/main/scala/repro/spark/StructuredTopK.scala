package repro.spark

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{ContinuousTopK, Event, SlideDriver, TopKQuery}

/** Per-query operator state carried between micro-batches: the slide
  * driver — the algorithm's full state machine, the running window counter
  * and the next expected arrival order, which keeps the arrival-order check
  * continuous across batches — plus the partial-slide buffer (micro-batches
  * need not align with slide boundaries).
  */
final class StreamState(
    algo: ContinuousTopK,
    var pending: Array[Event],
    wid: Long,
    nextT: Long = 1L,
) extends SlideDriver(algo, wid, nextT)

/** The Structured Streaming form of the continuous top-k operator: a
  * `flatMapGroupsWithState` stateful windowed operator. Each micro-batch
  * delivers a chunk of the stream per query; the operator maintains the
  * self-adaptive sub-window partitioning and candidate sets inside the
  * per-group state (java-serialized — every core structure is
  * Serializable) and emits the top-k rows of every window completed by the
  * batch. This is the repro target's "Structured Streaming windowed
  * operator maintaining top-k candidates per micro-batch".
  */
object StructuredTopK {

  def continuousTopK(
      spark: SparkSession,
      events: Dataset[(Int, Long, Double)], // (queryId, t, score), streaming
      queries: Map[Int, TopKQuery],
      factory: TopKQuery => ContinuousTopK,
  ): DataFrame = {
    import spark.implicits._
    events
      .groupByKey(_._1)
      .flatMapGroupsWithState[Array[Byte], TopKRow](
        OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
        (qid: Int, rows: Iterator[(Int, Long, Double)], state: GroupState[Array[Byte]]) =>
          val q = queries(qid)
          val st =
            if (state.exists) deserialize(state.get)
            else new StreamState(factory(q), Array.empty, 0L)
          val incoming = rows.map { case (_, t, s) => Event(t, s) }.toArray
          java.util.Arrays.sort(incoming, Ordering.by[Event, Long](_.t))
          val all = st.pending ++ incoming
          val out = scala.collection.mutable.ArrayBuffer[TopKRow]()
          val usable = SparkTopK.feedRows(qid, st, all, out)
          st.pending = java.util.Arrays.copyOfRange(all, usable, all.length)
          state.update(serialize(st))
          out.iterator
      }
      .toDF()
  }

  private[spark] def serialize(st: StreamState): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(st); oos.close()
    bos.toByteArray
  }

  private[spark] def deserialize(bytes: Array[Byte]): StreamState = {
    val ois = new ObjectInputStream(new ByteArrayInputStream(bytes))
    ois.readObject().asInstanceOf[StreamState]
  }
}
