package repro.index

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** Property tests of the search's small data structures against list models. */
class SearchPropertiesSpec extends AnyFunSuite {

  private val params = Check.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(20231L))

  private def holds(prop: Prop): Unit = {
    val res = Check.check(params, prop)
    assert(res.passed, Pretty.pretty(res))
  }

  /** `KnnHeap`'s contract as a list: ascending distances, ties in arrival
    * order; an offer is taken only when strictly below the bound and its id
    * is not held; a full heap drops its last pair.
    */
  private final class ListHeap(k: Int) {
    var held: List[(Double, Long)] = Nil
    def bound: Double = if (held.length < k) Double.PositiveInfinity else held.last._1
    def offer(d: Double, id: Long): Boolean =
      if (d < bound && !held.exists(_._2 == id)) {
        val (le, gt) = held.span(_._1 <= d)
        held = (le ++ ((d, id) :: gt)).take(k)
        true
      } else false
  }

  // few distinct distances and ids, so ties and repeated ids are common
  private val offers: Gen[List[(Double, Long)]] = Gen.listOf(Gen.zip(
    Gen.frequency(9 -> Gen.choose(0, 6).map(_ * 0.5), 1 -> Gen.const(Double.PositiveInfinity)),
    Gen.choose(0L, 9L)))

  for (k <- Seq(1, 2, 5)) {
    test(s"KnnHeap offer, bound and toSortedList match a list model (k=$k)") {
      holds(Prop.forAll(offers) { stream =>
        val heap = new KnnHeap(k)
        val model = new ListHeap(k)
        stream.forall { case (d, id) =>
          heap.offer(d, id) == model.offer(d, id) && heap.bound == model.bound
        } && heap.toSortedList == model.held
      })
    }
  }

  test("stableSortBy matches the library's stable sortBy on any slice") {
    val slices = for {
      keys  <- Gen.listOf(Gen.choose(0, 5).map(_.toDouble))
      from  <- Gen.choose(0, keys.length)
      until <- Gen.choose(from, keys.length)
    } yield (keys.toArray, from, until)
    holds(Prop.forAll(slices) { case (keys, from, until) =>
      val idx = Array.range(0, keys.length).reverse
      val want = idx.slice(from, until).sortBy(keys(_))
      Search.stableSortBy(keys, idx, from, until, new Array[Int](idx.length))
      idx.slice(from, until).sameElements(want)
    })
  }
}
