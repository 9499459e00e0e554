package perfbench

import repro.core._

/** Replays of the core data structures through their public APIs, on the
  * workload's own events and (n, k, s). Each operation is timed in batches
  * of one slide (s operations) with System.nanoTime, so the clock's own
  * cost is amortized over the batch.
  */
object Layers {
  /** Consumes replay results so the JIT cannot drop the timed calls. */
  @volatile var blackhole = 0L

  final class Acc { var ns = 0L; var ops = 0L; def per: Double = if (ops == 0) 0.0 else ns.toDouble / ops }

  val names: Seq[String] = Seq(
    "scoretree.insert_ns", "scoretree.delete_ns", "scoretree.find_ns",
    "scoretree.topk_walk_ns", "topkbuffer.offer_ns",
    "savl.insert_ns", "savl.collect_top_us", "savl.expire_us",
    "windowring.at_ns", "tbui.on_object_ns")

  /** Runs every replay over `streams`; each replay becomes a span under
    * `parent`. Returns the per-layer metrics named in `names`.
    */
  def run(streams: Seq[Stream], spans: SpanLog, parent: Int): Map[String, Double] = {
    val ins, del, find, walk, offer, savlIns, collect, expire, ringAt, tbui = new Acc
    def timed[A](idx: Int)(body: => A): A = {
      val t0 = System.nanoTime()
      val r = body
      spans.add(SpanKind.Layer, parent, idx, 0, 0, t0, System.nanoTime())
      r
    }
    streams.foreach { st =>
      timed(0)(scoreTree(st, ins, del, find, walk))
      timed(1)(topKBuffer(st, offer))
      timed(2)(sAvl(st, savlIns, collect, expire))
      timed(3)(windowRing(st, ringAt))
      timed(4)(tbuiReplay(st, tbui))
    }
    Map(
      "scoretree.insert_ns" -> ins.per, "scoretree.delete_ns" -> del.per,
      "scoretree.find_ns" -> find.per, "scoretree.topk_walk_ns" -> walk.per,
      "topkbuffer.offer_ns" -> offer.per,
      "savl.insert_ns" -> savlIns.per, "savl.collect_top_us" -> collect.per / 1e3,
      "savl.expire_us" -> expire.per / 1e3,
      "windowring.at_ns" -> ringAt.per, "tbui.on_object_ns" -> tbui.per)
  }

  val replayNames: Seq[String] = Seq("scoretree", "topkbuffer", "savl", "windowring", "tbui")

  /** A sliding window of n events kept in a ScoreTree: s inserts and s
    * deletes per slide, s lookups of live keys, and one top-k walk.
    */
  private def scoreTree(st: Stream, ins: Acc, del: Acc, find: Acc, walk: Acc): Unit = {
    val ev = st.events; val q = st.q
    val tree = new ScoreTree
    var sink = 0L
    var j = 0
    while (j < st.slides) {
      val lo = j * q.s; val hi = lo + q.s
      var t0 = System.nanoTime()
      var i = lo
      while (i < hi) { tree.insert(ev(i).score, ev(i).t); i += 1 }
      ins.ns += System.nanoTime() - t0; ins.ops += q.s
      if (hi > q.n) {
        val mid = math.max(hi - q.n, hi - q.n / 2 - q.s)
        t0 = System.nanoTime()
        i = mid
        while (i < mid + q.s) { if (tree.find(ev(i).score, ev(i).t) != null) sink += 1; i += 1 }
        find.ns += System.nanoTime() - t0; find.ops += q.s
        t0 = System.nanoTime()
        i = hi - q.n - q.s
        while (i < hi - q.n) { tree.delete(ev(i).score, ev(i).t); i += 1 }
        del.ns += System.nanoTime() - t0; del.ops += q.s
        t0 = System.nanoTime()
        var c = 0
        tree.foreachDescendingWhile { nd => sink += nd.t; c += 1; c < q.k }
        walk.ns += System.nanoTime() - t0; walk.ops += 1
      }
      j += 1
    }
    blackhole += sink
  }

  /** Per-unit top-k selection as SAP's unit and partition buffers do it. */
  private def topKBuffer(st: Stream, offer: Acc): Unit = {
    val ev = st.events; val q = st.q
    val unit = Partitioner.lMin(q)
    var buf = new TopKBuffer(q.k)
    var j = 0
    while (j < st.slides) {
      val lo = j * q.s
      if (lo % unit == 0) buf = new TopKBuffer(q.k)
      val t0 = System.nanoTime()
      var i = lo
      while (i < lo + q.s) { buf.offer(ev(i).score, ev(i).t); i += 1 }
      offer.ns += System.nanoTime() - t0; offer.ops += q.s
      j += 1
    }
  }

  /** S-AVL over consecutive partitions of l_min objects: built by a
    * reverse-arrival scan with Fθ = the k-th best score of the next
    * partition (which outlives this one), then drained slide by slide with
    * one expire and one collectTop(k) per slide.
    */
  private def sAvl(st: Stream, ins: Acc, collect: Acc, expire: Acc): Unit = {
    val ev = st.events; val q = st.q
    val len = Partitioner.lMin(q)
    var start = 0
    while (start + 2 * len <= ev.length) {
      val next = new TopKBuffer(q.k)
      var i = start + len
      while (i < start + 2 * len) { next.offer(ev(i).score, ev(i).t); i += 1 }
      val fTheta = next.minNode.score
      val m = new SAvl(q.k, fTheta)
      var t0 = System.nanoTime()
      i = start + len - 1
      while (i >= start) { m.insert(ev(i).score, ev(i).t); i -= 1 }
      ins.ns += System.nanoTime() - t0; ins.ops += len
      var lo = start
      while (lo < start + len) {
        val outgoing = java.util.Arrays.copyOfRange(ev, lo, lo + q.s)
        t0 = System.nanoTime()
        m.expire(outgoing, ev(lo + q.s - 1).t)
        val t1 = System.nanoTime()
        blackhole += m.collectTop(q.k).length
        val t2 = System.nanoTime()
        expire.ns += t1 - t0; expire.ops += 1
        collect.ns += t2 - t1; collect.ops += 1
        lo += q.s
      }
      start += len
    }
  }

  /** The raw-window ring: every arrival appended, the s outgoing events of
    * each slide read back by arrival order.
    */
  private def windowRing(st: Stream, at: Acc): Unit = {
    val ev = st.events; val q = st.q
    val ring = new WindowRing(q.n)
    var sink = 0.0
    var j = 0
    while (j < st.slides) {
      val lo = j * q.s
      var i = lo
      while (i < lo + q.s) { ring.append(ev(i)); i += 1 }
      if (lo + q.s >= q.n) {
        val first = lo + q.s - q.n + 1L
        val t0 = System.nanoTime()
        var t = first
        while (t < first + q.s) { sink += ring.at(t).score; t += 1 }
        at.ns += System.nanoTime() - t0; at.ops += q.s
      }
      j += 1
    }
    blackhole += sink.toLong
  }

  /** TBUI labelling over units of l_min objects; only onObject is timed. */
  private def tbuiReplay(st: Stream, on: Acc): Unit = {
    val ev = st.events; val q = st.q
    val unit = Partitioner.lMin(q)
    val tb = new Tbui(q.k)
    var top = new TopKBuffer(q.k)
    var start = 0
    var j = 0
    while (j < st.slides) {
      val lo = j * q.s
      val t0 = System.nanoTime()
      var i = lo
      while (i < lo + q.s) { tb.onObject(ev(i).score); i += 1 }
      on.ns += System.nanoTime() - t0; on.ops += q.s
      i = lo
      while (i < lo + q.s) { top.offer(ev(i).score, ev(i).t); i += 1 }
      if (lo + q.s - start >= unit) {
        tb.completeUnit(top.toDescendingArray, start + 1L, lo + q.s + 1L)
        top = new TopKBuffer(q.k)
        start = lo + q.s
      }
      j += 1
    }
  }
}
