package repro.core

/** Fixed-capacity ring buffer over the scores of the last `capacity`
  * appended events. Events are appended in arrival order t = 1, 2, 3, …,
  * so an event's t is its position and is not stored.
  *
  * Shared by algorithms that need access to the raw window: brute force
  * re-selection and SAP's meaningful-set formation scans.
  */
final class WindowRing(val capacity: Int) extends Serializable {
  private val scores = new Array[Double](capacity)
  private var n = 0L // total appended

  /** @throws IllegalArgumentException unless `e.t` is the next arrival order */
  def append(e: Event): Unit = {
    require(e.t == n + 1, s"arrival order t=${e.t} where t=${n + 1} was expected")
    scores((n % capacity).toInt) = e.score
    n += 1
  }

  /** Number of retained events (≤ capacity). */
  def count: Int = math.min(n, capacity.toLong).toInt

  def foreach(f: Event => Unit): Unit = {
    var t = n - count + 1
    while (t <= n) { f(Event(t, scores(((t - 1) % capacity).toInt))); t += 1 }
  }

  /** Event by absolute arrival order t (must still be retained). */
  def at(t: Long): Event = {
    require(t > n - count && t <= n, s"t=$t outside retained window (last=$n, kept=$count)")
    Event(t, scores(((t - 1) % capacity).toInt))
  }
}
