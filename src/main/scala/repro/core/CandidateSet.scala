package repro.core

/** The candidate set C of the SAP framework, shared by count-based
  * ([[Sap]]) and time-based ([[TimeBasedSap]]) windows (Appendix A): the
  * merge of every finalized partition's top-k snapshot P^k, refined by
  * dominance counters (Fig. 4). A window kind keeps its own partitions; it
  * folds each finalized P^k in here, deletes expired objects, and asks C
  * for ρ, Fθ and the per-slide answer.
  */
final class CandidateSet(k: Int) extends Serializable {
  /** C keyed by (score, t); `dom` is the dominance counter D(o, C, W). */
  val tree = new ScoreTree

  def size: Int = tree.size

  def delete(score: Double, t: Long): Unit = tree.delete(score, t)

  /** Merge-&-refine (Fig. 4): fold a finalized partition's P^k (best-first)
    * into C in one ascending co-walk, bumping the dominance counters of
    * existing candidates below each new one and removing those reaching k.
    */
  def mergeRefine(topDesc: Array[Event]): Unit = {
    val newAsc = topDesc.reverse
    val doomed = new scala.collection.mutable.ArrayBuffer[Event]()
    var j = 0
    tree.foreachAscending { node =>
      while (j < newAsc.length &&
             !Event.gt(newAsc(j).score, newAsc(j).t, node.score, node.t)) j += 1
      // everything in newAsc[j..] is strictly greater than this candidate
      node.dom += newAsc.length - j
      if (node.dom >= k) doomed += node.event
    }
    doomed.foreach(d => tree.delete(d.score, d.t))
    var i = 0
    while (i < newAsc.length) {
      tree.insert(newAsc(i).score, newAsc(i).t, dom = 0)
      i += 1
    }
  }

  /** Group dominance number ρ (Definition 1) of a partition whose P^k has
    * minimum `minTop`: that candidate's dominance counter in C. If it was
    * already refined away, at least k later-arriving candidates beat it —
    * equivalent to ρ ≥ k.
    */
  def rho(minTop: Event): Int = {
    val node = tree.find(minTop.score, minTop.t)
    if (node == null) k else math.min(k, node.dom)
  }

  /** Fθ (Lemma 2) of the partition holding arrivals [startT, endT): the
    * k-th highest candidate outside it, among C's other entries and
    * `later` (best-first tops of objects arriving after every entry of C),
    * all of which outlive the partition. −∞ when fewer than k exist.
    */
  def fTheta(startT: Long, endT: Long, later: Array[Event]): Double = {
    var count = 0
    var kth = Double.NegativeInfinity
    var li = 0
    // co-walk C (descending, skipping the partition's own candidates) with `later`
    tree.foreachDescendingWhile { node =>
      if (node.t < startT || node.t >= endT) {
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

  /** Top-k of C ∪ a ∪ b ∪ m (Lemma 1), best-first; `a`, `b` and `m` are
    * best-first arrays disjoint from C. Shorter than k only when the four
    * sources hold fewer than k objects together.
    */
  def answer(a: Array[Event], b: Array[Event], m: Array[Event]): Array[Event] = {
    val c = new Array[Event](math.min(k, tree.size))
    var ci = 0
    tree.foreachDescendingWhile { node =>
      c(ci) = node.event
      ci += 1
      ci < c.length
    }
    val out = new Array[Event](k)
    var filled = 0
    ci = 0
    var ai = 0; var bi = 0; var mi = 0
    var src = 0
    while (filled < k && src >= 0) {
      var best: Event = null
      src = -1
      if (ci < c.length) { best = c(ci); src = 0 }
      if (ai < a.length && (best == null || Event.gt(a(ai).score, a(ai).t, best.score, best.t))) { best = a(ai); src = 1 }
      if (bi < b.length && (best == null || Event.gt(b(bi).score, b(bi).t, best.score, best.t))) { best = b(bi); src = 2 }
      if (mi < m.length && (best == null || Event.gt(m(mi).score, m(mi).t, best.score, best.t))) { best = m(mi); src = 3 }
      src match {
        case 0 => ci += 1
        case 1 => ai += 1
        case 2 => bi += 1
        case 3 => mi += 1
        case _ => // all four sources exhausted
      }
      if (best != null) { out(filled) = best; filled += 1 }
    }
    if (filled == k) out else java.util.Arrays.copyOf(out, filled)
  }
}

object CandidateSet {
  /** The absent source of an answer merge. */
  val NoEvents: Array[Event] = new Array[Event](0)
}
