package repro.core

/** One partition P_i of the SAP framework (§3). It is *open* while its
  * window kind adds objects to it; [[SapCore]] then finalizes it, merging
  * its top-k P^k into C, and gives it its meaningful set M once it starts
  * draining. A window kind subclasses it with what it keeps of the
  * partition's objects and how it feeds them into M.
  */
abstract class Partition extends Serializable {
  private var topK = SapCore.NoEvents
  private var first = Long.MaxValue
  private var last = Long.MinValue
  private[core] var prepared = false
  private[core] var meaningful: MeaningfulSet = _

  /** Arrival order of the first object; Long.MaxValue while there is none. */
  final def startT: Long = first

  /** Arrival order of the last object. */
  final def lastT: Long = last

  /** Adds the objects arriving over [fromT, toT]; `newTop` is P^k with
    * them, best-first (the merge of `top` with their top-k).
    */
  final def add(newTop: Array[Event], fromT: Long, toT: Long): Unit = {
    topK = newTop
    if (first == Long.MaxValue) first = fromT
    last = toT
  }

  /** P^k, best-first. */
  final def top: Array[Event] = topK

  /** True iff the partition's object (score, t) is not in P^k. */
  protected final def outsideTop(score: Double, t: Long): Boolean = {
    val min = topK(topK.length - 1)
    Event.gt(min.score, min.t, score, t)
  }

  /** Feeds the objects outside P^k into `m` in strictly decreasing arrival
    * order. Objects scoring at most `m.fTheta` may be skipped: M rejects
    * them.
    */
  protected[core] def feedNewestFirst(m: MeaningfulSet): Unit
}

/** The SAP partition lifecycle (Algorithm 1), shared by count-based
  * ([[Sap]]) and time-based ([[TimeBasedSap]]) windows (Appendix A). It
  * owns the candidate set C — the merge of every finalized partition's P^k,
  * refined by dominance counters (Fig. 4) — the open partition, and the
  * live finalized partitions with their meaningful sets. A window kind only
  * cuts partitions and says, per slide, which objects leave the window; the
  * core finalizes, prepares the draining partition (ρ, Fθ, M), expires,
  * drops, and answers by Lemma 1.
  */
final class SapCore[P >: Null <: Partition](k: Int, formation: Formation) extends Serializable {
  /** C keyed by (score, t); `dom` is the dominance counter D(o, C, W). */
  private[core] val cand = new ScoreTree
  private val parts = new java.util.ArrayDeque[P]()
  private var cur: P = _

  /** The open partition, or null. */
  def current: P = cur

  /** Opens `p`; the previous open partition must have been finalized. */
  def open(p: P): Unit = cur = p

  /** Finalizes the open partition, if any: merge-&-refine of its P^k into
    * C. `EagerExact` ("non-delay", Table 2) builds M now, when no later
    * candidates exist to give ρ or Fθ — so it keeps the full k-skyband of
    * P − P^k. A partition without objects is dropped.
    */
  def finalizeCurrent(): Unit = {
    val p = cur
    cur = null
    if (p == null || p.top.length == 0) return
    cand.insertDominating(p.top, k)
    parts.addLast(p)
    if (formation == Formation.EagerExact) form(p, k, Double.NegativeInfinity)
  }

  /** Expiry at the start of a slide, before its arrivals. Every object with
    * t ≤ `cutoff` is out of the window once the slide is in; `outgoing` are
    * those that leave with this slide. `laterTop` is the best-first top of
    * objects that arrived after the open partition (the caller's filling
    * unit, if any). In order:
    *  - the open partition is finalized if its first object leaves;
    *  - finalized partitions whose last object leaves are dropped;
    *  - the partition that starts draining is prepared (ρ, Fθ, M);
    *  - the outgoing objects leave C and the draining partition's M.
    */
  def expire(cutoff: Long, outgoing: Array[Event], laterTop: => Array[Event]): Unit = {
    if (cur != null && cur.startT <= cutoff) finalizeCurrent()
    while (!parts.isEmpty && parts.peekFirst().lastT <= cutoff) parts.pollFirst()
    val front = parts.peekFirst()
    if (front != null && !front.prepared && front.startT <= cutoff)
      prepare(front, laterTop)
    var i = 0
    while (i < outgoing.length) { cand.delete(outgoing(i).score, outgoing(i).t); i += 1 }
    if (front != null && front.meaningful != null) front.meaningful.expire(outgoing, cutoff)
  }

  private def prepare(p: P, laterTop: Array[Event]): Unit = {
    p.prepared = true
    // Fewer than k objects: all of them are in P^k and M is empty.
    if (p.top.length < k || formation == Formation.EagerExact) return
    val rho = this.rho(p)
    if (rho >= k) return // Lemma 1: R ⊆ C, no M needed
    val later = SapCore.mergeTop(currentTop, laterTop, k)
    form(p, k - rho, fTheta(p.lastT, later))
  }

  private def form(p: P, limit: Int, fTheta: Double): Unit = {
    val m =
      if (formation == Formation.DelayedSAvl) new SAvl(limit, fTheta)
      else new ExactSkybandSet(limit, fTheta)
    p.feedNewestFirst(m)
    p.meaningful = m
  }

  /** Group dominance number ρ (Definition 1) of `p`: the dominance counter
    * of its P^k minimum in C. If that was already refined away, at least k
    * later-arriving candidates beat it — equivalent to ρ ≥ k.
    */
  private def rho(p: P): Int = {
    val min = p.top(p.top.length - 1)
    val node = cand.find(min.score, min.t)
    if (node == null) k else math.min(k, node.dom)
  }

  /** Fθ (Lemma 2) of the partition ending at `lastT`: the k-th highest of
    * C's later entries and `later` (best-first tops of objects arriving
    * after every entry of C), all of which outlive the partition. −∞ when
    * fewer than k exist.
    */
  private def fTheta(lastT: Long, later: Array[Event]): Double = {
    var count = 0
    var kth = Double.NegativeInfinity
    var li = 0
    // co-walk C's later entries (descending) with `later`
    cand.foreachDescendingWhile { node =>
      if (node.t > lastT) {
        while (count < k && li < later.length &&
               Event.gt(later(li).score, later(li).t, node.score, node.t)) {
          count += 1; kth = later(li).score; li += 1
        }
        if (count < k) { count += 1; kth = node.score }
      }
      count < k
    }
    while (count < k && li < later.length) { count += 1; kth = later(li).score; li += 1 }
    if (count >= k) kth else Double.NegativeInfinity
  }

  private def currentTop: Array[Event] = if (cur == null) SapCore.NoEvents else cur.top

  /** Top-k of C ∪ P_cur^k ∪ `laterTop` ∪ M_0 (Lemma 1), best-first;
    * `laterTop` is best-first and disjoint from the rest. Shorter than k
    * only when the four sources hold fewer than k objects together.
    */
  def answer(laterTop: Array[Event]): Array[Event] = {
    val front = parts.peekFirst()
    val m =
      if (front != null && front.meaningful != null) front.meaningful.collectTop(k)
      else SapCore.NoEvents
    import SapCore.mergeTop
    mergeTop(mergeTop(mergeTop(cand.top(k), currentTop, k), laterTop, k), m, k)
  }

  // --------------------------------------------------------------- metrics

  /** |C| + |P_cur^k| + every live partition's |M|. */
  def candidateCount: Int = {
    var count = cand.size + currentTop.length
    parts.forEach(p => if (p.meaningful != null) count += p.meaningful.size)
    count
  }

  /** Structural bytes of C, P_cur^k and every live partition's P^k and M. */
  def memoryBytes: Long = {
    var bytes = cand.size.toLong * ContinuousTopK.TreeNodeBytes +
      currentTop.length.toLong * ContinuousTopK.HeapSlotBytes
    parts.forEach { p =>
      if (p.meaningful != null) bytes += p.meaningful.memoryBytes
      bytes += p.top.length.toLong * ContinuousTopK.HeapSlotBytes
    }
    bytes
  }

  def partitionCount: Int = parts.size

  /** Visits the live finalized partitions, oldest first. */
  def foreachPartition(f: P => Unit): Unit = parts.forEach(p => f(p))
}

object SapCore {
  /** The empty best-first list. */
  val NoEvents: Array[Event] = new Array[Event](0)

  /** The best `min(limit, |a| + |b|)` of two best-first arrays, best-first,
    * in a new array: never `a` or `b`, so callers may keep or hand it out.
    */
  def mergeTop(a: Array[Event], b: Array[Event], limit: Int): Array[Event] = {
    val out = new Array[Event](math.min(limit, a.length + b.length))
    var i = 0; var j = 0; var o = 0
    while (o < out.length) {
      if (j >= b.length || (i < a.length && Event.gt(a(i).score, a(i).t, b(j).score, b(j).t)))
        { out(o) = a(i); i += 1 }
      else { out(o) = b(j); j += 1 }
      o += 1
    }
    out
  }
}
