package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.BruteForce
import repro.stream.StreamData
import scala.util.Random

/** Time-based windows (Appendix A): variable objects per slide. */
class TimeBasedSpec extends AnyFunSuite {

  /** Random time-based stream: `slides` batches with 0..maxPerSlide events. */
  private def randomSlides(slides: Int, maxPerSlide: Int, seed: Int): Array[Array[Event]] = {
    val rnd = new Random(seed)
    var t = 0L
    Array.fill(slides) {
      val cnt = rnd.nextInt(maxPerSlide + 1)
      Array.fill(cnt) { t += 1; Event(t, rnd.nextDouble() * 100 + 1e-9 * t) }
    }
  }

  private def compare(k: Int, w: Int, slides: Array[Array[Event]],
                      spp: Option[Int] = None): Unit = {
    val brute = new TimeBasedBruteForce(k, w)
    val sap = new TimeBasedSap(k, w, spp)
    slides.foreach { batch =>
      val a = brute.processSlide(batch).map(_.map(_.score).toSeq)
      val b = sap.processSlide(batch).map(_.map(_.score).toSeq)
      assert(a == b, s"divergence: brute=$a sap=$b")
    }
  }

  for (seed <- 1 to 8)
    test(s"TimeBasedSap == brute force on random variable-rate stream (seed=$seed)") {
      compare(k = 5, w = 12, randomSlides(200, 30, seed))
    }

  test("handles empty slides (no arrivals in an interval)") {
    val rnd = new Random(77)
    var t = 0L
    val slides = Array.tabulate(150) { i =>
      if (i % 3 == 0) Array.empty[Event]
      else Array.fill(rnd.nextInt(20)) { t += 1; Event(t, rnd.nextDouble()) }
    }
    compare(k = 4, w = 9, slides)
  }

  test("handles windows with fewer than k objects") {
    val rnd = new Random(5)
    var t = 0L
    val slides = Array.fill(100) {
      Array.fill(rnd.nextInt(2)) { t += 1; Event(t, rnd.nextDouble()) }
    }
    compare(k = 10, w = 8, slides)
  }

  test("explicit slides-per-partition settings all agree with brute force") {
    for (spp <- Seq(1, 2, 3, 6, 12))
      compare(k = 6, w = 12, randomSlides(180, 25, 42), Some(spp))
  }

  test("bursty rates (heavy slides after quiet ones)") {
    val rnd = new Random(9)
    var t = 0L
    val slides = Array.tabulate(120) { i =>
      val cnt = if (i % 10 == 9) 200 else 2
      Array.fill(cnt) { t += 1; Event(t, rnd.nextDouble() * 10) }
    }
    compare(k = 8, w = 10, slides)
  }

  test("monotone decreasing scores across a time-based stream") {
    var t = 0L
    val slides = Array.tabulate(120) { _ =>
      Array.fill(7) { t += 1; Event(t, 1e6 - t.toDouble) }
    }
    compare(k = 5, w = 10, slides)
  }

  // A time-based window with exactly s events per slide and n/s slides is
  // the count-based window ⟨n, k, s⟩, so the shared candidate-set core must
  // answer as count-based brute force does on every slide.
  for ((n, k, s) <- Seq((120, 6, 10), (96, 8, 8), (240, 10, 10)))
    test(s"constant-rate TimeBasedSap == count-based brute force (n=$n k=$k s=$s)") {
      for (ds <- StreamData.all; spp <- None +: Seq(1, 2, 3, 6, 12).map(Some(_))) {
        val events = ds.generate(10 * n)
        val brute = new BruteForce(TopKQuery(n, k, s))
        val sap = new TimeBasedSap(k, n / s, spp)
        events.grouped(s).zipWithIndex.foreach { case (slide, i) =>
          val a = brute.processSlide(slide).map(_.toSeq)
          val b = sap.processSlide(slide).map(_.toSeq)
          assert(a == b, s"${ds.name} spp=$spp slide $i: brute=$a sap=$b")
        }
      }
    }
}
