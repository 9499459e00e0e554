package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Meaningful-set formation policy — the rows of Table 2. */
sealed trait Formation extends Serializable
object Formation {
  /** "non-delay": build M_i for *every* partition as soon as it is
    * finalized. No global pruning is available then (all other candidates
    * arrived earlier and may expire first), so these sets are large.
    */
  case object EagerExact extends Formation

  /** "Algo 1": delay formation until the partition is about to drain, then
    * re-scan it into an exact bounded k-skyband tree (no S-AVL).
    */
  case object DelayedExact extends Formation

  /** "Algo 1 + S-AVL": delayed formation into the S-AVL structure (§5.1);
    * with a TBUI-enabled partitioner the UBSA unit-skipping construction
    * (§5.2) is used.
    */
  case object DelayedSAvl extends Formation
}

/** The SAP framework (§3, Algorithm 1).
  *
  * The window is partitioned into sub-windows built from units, as decided
  * by the pluggable [[Partitioner]]. Per finalized partition we retain the
  * top-k snapshot P_i^k and fold it into the [[CandidateSet]] C. When a
  * partition is about to become the draining front, C yields its group
  * dominance number ρ (Definition 1); if ρ < k its meaningful object set
  * M_i is formed by the configured [[Formation]] policy (Lemma 2 pruning).
  * The per-slide answer is the top-k of C ∪ P_cur^k ∪ U_cur^k ∪ M_0
  * (Lemma 1).
  */
final class Sap(
    val query: TopKQuery,
    val partitioner: Partitioner,
    val formation: Formation = Formation.DelayedSAvl,
) extends ContinuousTopK {
  import query.{k, n, s}

  private val unitSz = partitioner.unitSize(query)
  require(unitSz % s == 0 && unitSz >= math.max(s, k) && unitSz <= n,
    s"unit size $unitSz violates structural constraints (s=$s k=$k n=$n)")

  /** A finalized partition. */
  private final class Part(val startT: Long, val endT: Long,
                           val topK: Array[Event],
                           val units: ArrayBuffer[UnitSummary]) extends Serializable {
    var meaningful: MeaningfulSet = _
    var prepared = false
    def minTop: Event = topK(topK.length - 1)
  }

  private val ring = new WindowRing(n)
  private val parts = new java.util.ArrayDeque[Part]()
  private val cand = new CandidateSet(k)

  // Current (still growing) partition.
  private var curStartT = 1L
  private var curSize = 0
  private var curTop = new TopKBuffer(k)
  private var curUnits = new ArrayBuffer[UnitSummary]()

  // Current (still filling) unit.
  private var unitStartT = 1L
  private var unitFill = 0
  private var unitTop = new TopKBuffer(k)

  private val tbui: Tbui = if (partitioner.useTbui) new Tbui(k) else null

  private var arrivals = 0L

  // ---------------------------------------------------------------- slides

  override def processSlide(events: Array[Event]): Option[Array[Event]] = {
    require(events.length == s)
    val cutoffNew = arrivals + s - n // post-slide window start − 1

    // 1. Prepare the partition that starts draining this slide *before* its
    //    objects are overwritten in the ring or removed from C.
    var outgoing: Array[Event] = null
    if (cutoffNew > 0) {
      val front = parts.peekFirst()
      if (front != null && !front.prepared && front.startT <= cutoffNew)
        prepareFront(front)
      val cutoffOld = math.max(0L, arrivals - n)
      outgoing = new Array[Event]((cutoffNew - cutoffOld).toInt)
      var j = 0
      var t = cutoffOld + 1
      while (t <= cutoffNew) { outgoing(j) = ring.at(t); j += 1; t += 1 }
    }

    // 2. Process arrivals.
    var i = 0
    while (i < events.length) { arrive(events(i)); i += 1 }

    // 3. Expiry bookkeeping.
    if (outgoing != null) {
      val front = parts.peekFirst()
      var j = 0
      while (j < outgoing.length) {
        val e = outgoing(j)
        cand.delete(e.score, e.t)
        j += 1
      }
      if (front != null && front.meaningful != null)
        front.meaningful.expire(outgoing, cutoffNew)
      while (!parts.isEmpty && parts.peekFirst().endT - 1 <= cutoffNew)
        parts.pollFirst()
    }

    // 4. Answer.
    if (arrivals < n) None else Some(answer())
  }

  private def arrive(e: Event): Unit = {
    ring.append(e)
    arrivals += 1
    unitTop.offer(e.score, e.t)
    if (tbui != null) tbui.onObject(e.score)
    unitFill += 1
    if (unitFill == unitSz) completeUnit(e.t)
  }

  // ----------------------------------------------------------------- units

  private def completeUnit(lastT: Long): Unit = {
    val topDesc = unitTop.toDescendingArray
    val summary =
      if (tbui != null) tbui.completeUnit(topDesc, unitStartT, lastT + 1)
      else new UnitSummary(unitStartT, lastT + 1, kUnit = true, topDesc)

    if (curSize == 0) {
      adoptUnitAsNewPartition(topDesc, summary)
    } else {
      val mergedTop = mergeTop(curTop.toDescendingArray, topDesc, k)
      val history = historyTopScores(curSize + unitSz)
      if (partitioner.join(query, curSize, mergedTop.map(_.score), history)) {
        var i = 0
        while (i < topDesc.length) { curTop.offer(topDesc(i).score, topDesc(i).t); i += 1 }
        curSize += unitSz
        curUnits += summary
      } else {
        finalizeCurrent()
        adoptUnitAsNewPartition(topDesc, summary)
      }
    }
    unitTop = new TopKBuffer(k)
    unitFill = 0
    unitStartT = lastT + 1
  }

  private def adoptUnitAsNewPartition(topDesc: Array[Event], summary: UnitSummary): Unit = {
    curStartT = summary.startT
    curTop = new TopKBuffer(k)
    var i = 0
    while (i < topDesc.length) { curTop.offer(topDesc(i).score, topDesc(i).t); i += 1 }
    curSize = unitSz
    curUnits = new ArrayBuffer[UnitSummary]()
    curUnits += summary
  }

  private def finalizeCurrent(): Unit = {
    val p = new Part(curStartT, curStartT + curSize, curTop.toDescendingArray, curUnits)
    cand.mergeRefine(p.topK)
    parts.addLast(p)
    if (formation == Formation.EagerExact) formEager(p)
    curSize = 0
    curUnits = new ArrayBuffer[UnitSummary]()
    curTop = new TopKBuffer(k)
  }

  // --------------------------------------------------------- M_i formation

  private def prepareFront(p: Part): Unit = {
    p.prepared = true
    if (formation == Formation.EagerExact) return // formed at finalize time
    val rho = cand.rho(p.minTop)
    if (rho >= k) return // Lemma 1: R ⊆ C, no M needed
    // the current partition and unit arrived after p and outlive it
    val fTheta = cand.fTheta(p.startT, p.endT,
      mergeTop(curTop.toDescendingArray, unitTop.toDescendingArray, k))
    val limit = k - rho
    val m: MeaningfulSet = formation match {
      case Formation.DelayedExact => new ExactSkybandSet(limit, fTheta)
      case _                      => new SAvl(limit, fTheta)
    }
    val candTs = topKTs(p)
    if (partitioner.useTbui && formation == Formation.DelayedSAvl)
      ubsaScan(p, m, fTheta, candTs)
    else
      scanRange(p.endT - 1, p.startT, m, candTs)
    p.meaningful = m
  }

  /** "non-delay": M is built at finalize time. No later-arriving candidates
    * exist yet, so neither global pruning (Fθ) nor ρ is available — the
    * full k-skyband of P − P^k is kept. This is exactly why the paper's
    * delay policy wins in Table 2.
    */
  private def formEager(p: Part): Unit = {
    val m = new ExactSkybandSet(k, Double.NegativeInfinity)
    scanRange(p.endT - 1, p.startT, m, topKTs(p))
    p.meaningful = m
  }

  private def topKTs(p: Part): mutable.LongMap[Boolean] = {
    val set = new mutable.LongMap[Boolean](p.topK.length * 2)
    p.topK.foreach(e => set.update(e.t, true))
    set
  }

  /** Reverse-arrival-order scan of [lowT, highT] from the ring, feeding
    * every non-candidate object into `m`.
    */
  private def scanRange(highT: Long, lowT: Long, m: MeaningfulSet,
                        candTs: mutable.LongMap[Boolean]): Unit = {
    var t = highT
    while (t >= lowT) {
      if (!candTs.contains(t)) {
        val e = ring.at(t)
        m.insert(e.score, e.t)
      }
      t -= 1
    }
  }

  /** UBSA (§5.2): unit-skipping construction driven by the TBUI list L_i.
    * Units are visited newest-first (preserving the reverse-arrival order
    * the S-AVL requires):
    *  - non-k-unit with top-1 ≤ Fθ: the whole unit is globally pruned;
    *  - k-unit with min(U_v^k) < Fθ: only U_v^k can pass the global filter,
    *    so feeding the summary replaces scanning the unit;
    *  - otherwise the unit is scanned in full from the ring.
    */
  private def ubsaScan(p: Part, m: MeaningfulSet, fTheta: Double,
                       candTs: mutable.LongMap[Boolean]): Unit = {
    var ui = p.units.length - 1
    while (ui >= 0) {
      val u = p.units(ui)
      if (!u.kUnit) {
        if (u.top(0).score > fTheta) scanRange(u.endT - 1, u.startT, m, candTs)
        // else: every object of the unit fails the global pruning — skip
      } else {
        if (u.minTop.score < fTheta) {
          // feed only U_v^k, in reverse arrival order
          val byTDesc = u.top.sortBy(e => -e.t)
          var i = 0
          while (i < byTDesc.length) {
            val e = byTDesc(i)
            if (!candTs.contains(e.t)) m.insert(e.score, e.t)
            i += 1
          }
        } else scanRange(u.endT - 1, u.startT, m, candTs)
      }
      ui -= 1
    }
  }

  // --------------------------------------------------------------- answers

  /** Top-k of C ∪ P_cur^k ∪ U_cur^k ∪ M_0 (Lemma 1). A count-based window
    * always holds at least k objects, so fewer results is a broken invariant.
    */
  private def answer(): Array[Event] = {
    val front = parts.peekFirst()
    val m =
      if (front != null && front.meaningful != null) front.meaningful.collectTop(k)
      else CandidateSet.NoEvents
    val out = cand.answer(curTop.toDescendingArray, unitTop.toDescendingArray, m)
    if (out.length < k)
      throw new IllegalStateException(s"candidate underflow: only ${out.length} of $k results available")
    out
  }

  // --------------------------------------------------------------- metrics

  override def candidateCount: Int = {
    var m0 = 0
    val it = parts.iterator()
    while (it.hasNext) {
      val p = it.next()
      if (p.meaningful != null) m0 += p.meaningful.size
    }
    cand.size + curTop.size + unitTop.size + m0
  }

  override def memoryBytes: Long = {
    var bytes =
      (cand.size + curTop.size + unitTop.size).toLong * ContinuousTopK.TreeNodeBytes
    val it = parts.iterator()
    while (it.hasNext) {
      val p = it.next()
      if (p.meaningful != null) bytes += p.meaningful.memoryBytes
      bytes += p.topK.length.toLong * ContinuousTopK.HeapSlotBytes
      if (partitioner.useTbui) {
        val ui = p.units.iterator
        while (ui.hasNext) bytes += ui.next().memoryBytes
      }
    }
    bytes
  }

  /** Number of live finalized partitions (test observability). */
  def partitionCount: Int = parts.size

  /** Sizes (object counts) of live finalized partitions, oldest first. */
  def partitionSizes: Seq[Int] = {
    val out = new ArrayBuffer[Int]()
    val it = parts.iterator()
    while (it.hasNext) { val p = it.next(); out += (p.endT - p.startT).toInt }
    out.toSeq
  }

  // ---------------------------------------------------------------- helpers

  /** Top-ηk candidate scores within the lookback interval I (§4.2). */
  private def historyTopScores(pPrimeSize: Int): Array[Double] = {
    val minT = arrivals - n + pPrimeSize + 1
    val want = Wrt.etaK(k)
    val out = new ArrayBuffer[Double](want)
    cand.tree.foreachDescendingWhile { node =>
      if (node.t >= minT) out += node.score
      out.length < want
    }
    out.toArray
  }

  /** Merge two best-first arrays into the best `limit`, deduplicating. */
  private def mergeTop(a: Array[Event], b: Array[Event], limit: Int): Array[Event] = {
    val out = new ArrayBuffer[Event](limit)
    var i = 0; var j = 0
    while (out.length < limit && (i < a.length || j < b.length)) {
      if (j >= b.length || (i < a.length && Event.gt(a(i).score, a(i).t, b(j).score, b(j).t)))
        { out += a(i); i += 1 }
      else { out += b(j); j += 1 }
    }
    out.toArray
  }
}
