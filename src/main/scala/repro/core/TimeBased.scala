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

  /** @throws IllegalArgumentException on a NaN score, which no total order
    *         of (score, t) can place
    */
  def processSlide(batch: Array[Event]): Option[Array[Event]]

  protected final def rejectNaN(batch: Array[Event]): Unit = {
    var i = 0
    while (i < batch.length) {
      if (batch(i).score.isNaN)
        throw new IllegalArgumentException(s"NaN score at t=${batch(i).t}")
      i += 1
    }
  }
}

/** Ground truth: keep the raw slides, re-select per slide. */
final class TimeBasedBruteForce(val k: Int, val windowSlides: Int) extends TimeBasedTopK {
  private val slides = new java.util.ArrayDeque[Array[Event]]()

  override def processSlide(batch: Array[Event]): Option[Array[Event]] = {
    rejectNaN(batch)
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

/** SAP under time-based windows (Appendix A). A partition is a group of
  * `slidesPerPartition` consecutive slides, closed early if its first object
  * leaves the window first. Everything else — C, ρ, Fθ, S-AVL meaningful
  * sets, expiry and the answer — is the [[SapCore]] lifecycle that
  * count-based [[Sap]] uses; this class buffers the window's slides and
  * feeds a partition's objects into M from them.
  */
final class TimeBasedSap(val k: Int, val windowSlides: Int,
                         slidesPerPartitionOpt: Option[Int] = None) extends TimeBasedTopK {
  private val slidesPerPartition: Int =
    slidesPerPartitionOpt.getOrElse(
      math.max(1, math.ceil(windowSlides / math.ceil(math.sqrt(windowSlides.toDouble))).toInt))

  /** A partition of buffered slides. */
  private final class Part extends Partition {
    val slides = new ArrayBuffer[Array[Event]]()

    override protected[core] def feedNewestFirst(m: MeaningfulSet): Unit = {
      var si = slides.length - 1
      while (si >= 0) {
        val sl = slides(si)
        var i = sl.length - 1
        while (i >= 0) {
          val e = sl(i)
          if (outsideTop(e.score, e.t)) m.insert(e.score, e.t)
          i -= 1
        }
        si -= 1
      }
    }
  }

  private val core = new SapCore[Part](k, Formation.DelayedSAvl)
  private val window = new java.util.ArrayDeque[Array[Event]]() // the last windowSlides slides
  private var cutoff = Long.MinValue // the largest t that has left the window

  override def processSlide(batch: Array[Event]): Option[Array[Event]] = {
    rejectNaN(batch)
    if (window.size == windowSlides) {
      val outgoing = window.pollFirst()
      if (outgoing.nonEmpty) cutoff = outgoing.last.t
      core.expire(cutoff, outgoing, SapCore.NoEvents)
    }
    window.addLast(batch)
    if (core.current == null) core.open(new Part)
    val p = core.current
    p.slides += batch
    if (batch.nonEmpty) {
      val batchTop = new TopKBuffer(k)
      batch.foreach(e => batchTop.offer(e.score, e.t))
      p.add(SapCore.mergeTop(p.top, batchTop.toDescendingArray, k), batch(0).t, batch.last.t)
    }
    if (p.slides.length == slidesPerPartition) core.finalizeCurrent()
    if (window.size < windowSlides) None else Some(core.answer(SapCore.NoEvents))
  }
}
