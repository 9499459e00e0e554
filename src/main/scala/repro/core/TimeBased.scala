package repro.core

import scala.collection.mutable.ArrayBuffer

/** Time-based sliding windows (Appendix A): the slide is a time interval,
  * so each slide carries a *variable* number of objects (possibly zero) and
  * the window is the last `windowSlides` slides. Events keep globally
  * unique, increasing arrival orders `t` for tie-breaking.
  *
  * Protocol: call `processSlide` once per elapsed slide interval with the
  * batch of objects that arrived during it; after `windowSlides` calls each
  * call returns the top-(≤k) of the window.
  */
trait TimeBasedTopK extends Serializable {
  def k: Int
  def windowSlides: Int
  def processSlide(batch: Array[Event]): Option[Array[Event]]
}

/** Ground truth: keep the raw slides, re-select per slide. */
final class TimeBasedBruteForce(val k: Int, val windowSlides: Int) extends TimeBasedTopK {
  private val slides = new java.util.ArrayDeque[Array[Event]]()

  override def processSlide(batch: Array[Event]): Option[Array[Event]] = {
    slides.addLast(batch)
    if (slides.size > windowSlides) slides.pollFirst()
    if (slides.size < windowSlides) None
    else {
      val buf = new TopKBuffer(k)
      slides.forEach(b => b.foreach(e => buf.offer(e.score, e.t)))
      Some(buf.toDescendingArray)
    }
  }
}

/** SAP under time-based windows with equal partitioning (Appendix A): a
  * partition is a fixed group of `slidesPerPartition` consecutive slides
  * (so partitions align with slide expiry, as in the count-based case).
  * Only the partition bookkeeping — buffered slides and per-slide expiry —
  * is time-based; the per-partition P^k, ρ, Fθ and the answer come from the
  * [[CandidateSet]] core that count-based [[Sap]] uses, and meaningful sets
  * are formed by delayed exact formation.
  */
final class TimeBasedSap(val k: Int, val windowSlides: Int,
                         slidesPerPartitionOpt: Option[Int] = None) extends TimeBasedTopK {
  private val slidesPerPartition: Int =
    slidesPerPartitionOpt.getOrElse(
      math.max(1, math.ceil(windowSlides / math.ceil(math.sqrt(windowSlides.toDouble))).toInt))

  private final class Part(val slides: ArrayBuffer[Array[Event]],
                           val topK: Array[Event]) extends Serializable {
    var remaining: Int = slides.length // un-expired slides
    var meaningful: MeaningfulSet = _
    var prepared = false
  }

  private val cand = new CandidateSet(k)
  private val parts = new java.util.ArrayDeque[Part]()
  private var curSlides = new ArrayBuffer[Array[Event]]()
  private var curTop = new TopKBuffer(k)
  private var slidesSeen = 0L

  override def processSlide(batch: Array[Event]): Option[Array[Event]] = {
    // Prepare the partition that starts draining with this slide.
    if (slidesSeen + 1 > windowSlides) {
      val front = parts.peekFirst()
      if (front != null && !front.prepared) prepareFront(front)
    }

    // Arrivals.
    curSlides += batch
    batch.foreach(e => curTop.offer(e.score, e.t))
    slidesSeen += 1
    if (curSlides.length == slidesPerPartition) finalizeCurrent()

    // Expiry of the oldest slide once the window is full.
    if (slidesSeen > windowSlides) {
      val front = parts.peekFirst()
      require(front != null && front.remaining > 0, "front accounting broke")
      val idx = front.slides.length - front.remaining
      val outgoing = front.slides(idx)
      outgoing.foreach(e => cand.delete(e.score, e.t))
      if (front.meaningful != null) {
        val minT = if (outgoing.nonEmpty) outgoing.map(_.t).max else Long.MinValue
        front.meaningful.expire(outgoing, minT)
      }
      front.remaining -= 1
      if (front.remaining == 0) parts.pollFirst()
    }

    if (slidesSeen < windowSlides) None
    else {
      val front = parts.peekFirst()
      val m =
        if (front != null && front.meaningful != null) front.meaningful.collectTop(k)
        else CandidateSet.NoEvents
      Some(cand.answer(curTop.toDescendingArray, CandidateSet.NoEvents, m))
    }
  }

  private def finalizeCurrent(): Unit = {
    val p = new Part(curSlides, curTop.toDescendingArray)
    cand.mergeRefine(p.topK)
    parts.addLast(p)
    curSlides = new ArrayBuffer[Array[Event]]()
    curTop = new TopKBuffer(k)
  }

  private def prepareFront(p: Part): Unit = {
    p.prepared = true
    // Empty, or fewer than k objects: every one is already a candidate and
    // M is empty.
    if (p.topK.length < k) return
    val rho = cand.rho(p.topK(p.topK.length - 1))
    if (rho >= k) return
    // p's objects span arrival orders [first, last]; the current partition
    // arrived after p and outlives it.
    val occupied = p.slides.filter(_.nonEmpty)
    val fTheta = cand.fTheta(occupied.head(0).t, occupied.last.last.t + 1, curTop.toDescendingArray)
    val m = new ExactSkybandSet(k - rho, fTheta)
    val inP = p.topK.map(_.t).toSet
    // reverse arrival order over the partition's buffered slides
    var si = p.slides.length - 1
    while (si >= 0) {
      val sl = p.slides(si)
      var i = sl.length - 1
      while (i >= 0) {
        val e = sl(i)
        if (!inP.contains(e.t)) m.insert(e.score, e.t)
        i -= 1
      }
      si -= 1
    }
    p.meaningful = m
  }
}
