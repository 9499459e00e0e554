package repro.core

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


/** The SAP framework (§3, Algorithm 1) over count-based windows.
  *
  * The window is partitioned into sub-windows built from units, as decided
  * by the pluggable [[Partitioner]]. The partition lifecycle — P^k merged
  * into C, ρ, Fθ, the meaningful set M_i formed by the configured
  * [[Formation]] policy, expiry and the Lemma-1 answer over
  * C ∪ P_cur^k ∪ U_cur^k ∪ M_0 — is the [[SapCore]] that time-based windows
  * share; this class fills units, cuts partitions and feeds a partition's
  * objects into M from the window ring.
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

  /** UBSA (§5.2) builds the S-AVL from TBUI unit summaries. */
  private val ubsa = partitioner.useTbui && formation == Formation.DelayedSAvl

  /** A partition of whole units; its objects are read back from the ring. */
  private final class Part extends Partition {
    /** TBUI's list L_i, kept only for UBSA. */
    val units = new ArrayBuffer[UnitSummary]()

    def size: Int = (lastT - startT + 1).toInt

    override protected[core] def feedNewestFirst(m: MeaningfulSet): Unit =
      if (ubsa) ubsaScan(m) else scanRange(lastT, startT, m)

    /** Reverse-arrival-order scan of [lowT, highT] from the ring. */
    private def scanRange(highT: Long, lowT: Long, m: MeaningfulSet): Unit = {
      var t = highT
      while (t >= lowT) {
        val e = ring.at(t)
        if (outsideTop(e.score, e.t)) m.insert(e.score, e.t)
        t -= 1
      }
    }

    /** UBSA (§5.2): unit-skipping construction driven by the TBUI list L_i.
      * Units are visited newest-first (preserving the reverse-arrival order
      * the S-AVL requires):
      *  - non-k-unit with top-1 ≤ Fθ: the whole unit is globally pruned;
      *  - k-unit with min(U_v^k) < Fθ: only U_v^k can pass the global
      *    filter, so feeding the summary replaces scanning the unit;
      *  - otherwise the unit is scanned in full from the ring.
      */
    private def ubsaScan(m: MeaningfulSet): Unit = {
      val fTheta = m.fTheta
      var ui = units.length - 1
      while (ui >= 0) {
        val u = units(ui)
        if (!u.kUnit) {
          if (u.top(0).score > fTheta) scanRange(u.endT - 1, u.startT, m)
          // else: every object of the unit fails the global pruning — skip
        } else if (u.minTop.score < fTheta) {
          // feed only U_v^k, in reverse arrival order
          val byTDesc = u.top.sortBy(e => -e.t)
          var i = 0
          while (i < byTDesc.length) {
            val e = byTDesc(i)
            if (outsideTop(e.score, e.t)) m.insert(e.score, e.t)
            i += 1
          }
        } else scanRange(u.endT - 1, u.startT, m)
        ui -= 1
      }
    }
  }

  private val ring = new WindowRing(n)
  private val core = new SapCore[Part](k, formation)

  // Current (still filling) unit.
  private var unitStartT = 1L
  private var unitFill = 0
  private var unitTop = new TopKBuffer(k)

  private val tbui: Tbui = if (ubsa) new Tbui(k) else null

  private var arrivals = 0L

  // ---------------------------------------------------------------- slides

  override def processSlide(events: Array[Event]): Option[Array[Event]] = {
    require(events.length == s)
    val cutoff = arrivals + s - n // the last t that leaves with this slide
    if (cutoff > 0) {
      // read the s outgoing objects before arrivals overwrite them
      val outgoing = new Array[Event](s)
      var j = 0
      while (j < s) { outgoing(j) = ring.at(cutoff - s + 1 + j); j += 1 }
      core.expire(cutoff, outgoing, unitTop.toDescendingArray)
    }
    var i = 0
    while (i < events.length) { arrive(events(i)); i += 1 }
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

  /** The completed unit joins the open partition or starts a new one. */
  private def completeUnit(lastT: Long): Unit = {
    val topDesc = unitTop.toDescendingArray
    val cur = core.current
    val merged = if (cur == null) null else SapCore.mergeTop(cur.top, topDesc, k)
    if (cur != null && partitioner.join(query, cur.size, merged.map(_.score),
          historyTopScores(cur.size + unitSz)))
      cur.add(merged, unitStartT, lastT)
    else {
      core.finalizeCurrent()
      core.open(new Part)
      core.current.add(topDesc, unitStartT, lastT)
    }
    if (ubsa) core.current.units += tbui.completeUnit(topDesc, unitStartT, lastT + 1)
    unitTop = new TopKBuffer(k)
    unitFill = 0
    unitStartT = lastT + 1
  }

  /** Top-k of C ∪ P_cur^k ∪ U_cur^k ∪ M_0 (Lemma 1). A count-based window
    * always holds at least k objects, so fewer results is a broken invariant.
    */
  private def answer(): Array[Event] = {
    val out = core.answer(unitTop.toDescendingArray)
    if (out.length < k)
      throw new IllegalStateException(s"candidate underflow: only ${out.length} of $k results available")
    out
  }

  // --------------------------------------------------------------- metrics

  override def candidateCount: Int = core.candidateCount + unitTop.size

  override def memoryBytes: Long = {
    var bytes = core.memoryBytes + unitTop.size.toLong * ContinuousTopK.TreeNodeBytes
    if (ubsa)
      core.foreachPartition(_.units.foreach(u => bytes += u.memoryBytes))
    bytes
  }

  /** Number of live finalized partitions (test observability). */
  def partitionCount: Int = core.partitionCount

  /** Sizes (object counts) of live finalized partitions, oldest first. */
  def partitionSizes: Seq[Int] = {
    val out = new ArrayBuffer[Int]()
    core.foreachPartition(p => out += p.size)
    out.toSeq
  }

  /** Top-ηk candidate scores within the lookback interval I (§4.2). */
  private def historyTopScores(pPrimeSize: Int): Array[Double] = {
    val minT = arrivals - n + pPrimeSize + 1
    val want = Wrt.etaK(k)
    val out = new ArrayBuffer[Double](want)
    core.cand.foreachDescendingWhile { node =>
      if (node.t >= minT) out += node.score
      out.length < want
    }
    out.toArray
  }
}
