package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Experiments.Scale

class MainSpec extends AnyFunSuite {

  test("the scale args default when absent and must be positive Ints") {
    assert(Main.parseScale(Seq("fig13")) == Some(Scale()))
    assert(Main.parseScale(Seq("fig13", "1024")) == Some(Scale(n = 1024)))
    assert(Main.parseScale(Seq("fig13", "1024", "10")) == Some(Scale(1024, 10)))
    for (bad <- Seq(Seq("fig13", "abc"), Seq("fig13", "1024", "0"), Seq("fig13", "-5"),
                    Seq("fig13", "1024", "1.5"), Seq("fig13", "99999999999")))
      assert(Main.parseScale(bad).isEmpty, bad.mkString(" "))
  }
}
