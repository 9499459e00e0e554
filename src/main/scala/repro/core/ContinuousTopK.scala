package repro.core

/** Common interface of every continuous top-k algorithm in this repo.
  *
  * Driving protocol (count-based window ⟨n, k, s⟩):
  *  - feed the stream in arrival order via `processSlide`, s events at a
  *    time ([[SlideDriver]] slices the stream for every caller and checks
  *    that the arrival orders run t = 1, 2, 3, …);
  *  - once at least n events have arrived, each call returns the current
  *    window's top-k, best-first; before that it returns None.
  *
  * Implementations are single-threaded mutable state machines; they are
  * Serializable so the Structured Streaming operator can persist them as
  * per-group state between micro-batches.
  */
trait ContinuousTopK extends Serializable {
  def query: TopKQuery

  /** Process one slide of exactly `query.s` events (arrival order). */
  def processSlide(events: Array[Event]): Option[Array[Event]]

  /** Current number of maintained candidates (the paper's |C| metric).
    * Sampled by the harness right after each slide.
    */
  def candidateCount: Int

  /** Structural memory estimate in bytes (see DESIGN.md §6). */
  def memoryBytes: Long
}

object ContinuousTopK {
  /** Per-entry byte costs of the structural memory model. */
  val TreeNodeBytes  = 48L // key (16) + 2 child refs + height/size/dom/tag
  val HeapSlotBytes  = 16L // (score, t) slot in a primitive heap array
  val StackSlotBytes = 24L // (score, t) + back-reference in an S-AVL stack
}

/** The one loop that feeds a stream to a [[ContinuousTopK]]: it slices the
  * events into slides of `query.s`, checks the arrival-order contract,
  * calls `processSlide` and numbers the answers. The driver carries the
  * running window count `wid` and the arrival order `nextT` that the next
  * event must carry, so a stream can be fed in pieces (micro-batches).
  */
class SlideDriver(val algo: ContinuousTopK, var wid: Long = 0L, var nextT: Long = 1L)
    extends Serializable {

  /** One slide through the algorithm; the harness overrides it to clock
    * `processSlide` alone.
    */
  protected def step(slide: Array[Event]): Option[Array[Event]] = algo.processSlide(slide)

  /** Feeds every whole slide of `events` in order and hands each answer,
    * with its 1-based window id, to `onAnswer`. Returns the number of
    * events fed; a trailing partial slide is left to the caller.
    *
    * @throws IllegalArgumentException when an event's arrival order is not
    *         `nextT` — a gap, a repeat or a reordering — or its score is
    *         NaN. Every algorithm takes t to be the arrival count and
    *         compares scores totally, so such a stream would otherwise give
    *         wrong answers silently. Infinite scores are accepted.
    */
  def feed(events: Array[Event])(onAnswer: (Long, Array[Event]) => Unit): Int = {
    val s = algo.query.s
    val usable = (events.length / s) * s
    var off = 0
    while (off < usable) {
      var i = off
      while (i < off + s) {
        if (events(i).t != nextT)
          throw new IllegalArgumentException(
            s"${algo.query}: arrival order t=${events(i).t} where t=$nextT was expected; " +
              "arrival orders must run 1, 2, 3, ... without gaps or repeats")
        if (events(i).score.isNaN)
          throw new IllegalArgumentException(s"${algo.query}: NaN score at t=${events(i).t}")
        nextT += 1
        i += 1
      }
      step(java.util.Arrays.copyOfRange(events, off, off + s)) match {
        case Some(res) => wid += 1; onAnswer(wid, res)
        case None      =>
      }
      off += s
    }
    usable
  }
}
