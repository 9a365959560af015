package repro.core

import scala.collection.immutable.ListMap

import repro.core.Ast._

/** The Horvitz–Thompson estimator of one aggregate call (Section 4.2),
  * written once for every rewrite path: sufficient statistics, each a sum
  * over sampled rows weighted by 1/p (p: the row's sampling probability),
  * and one combine step, rendered as the `point`, `perSubsample` and
  * `single` forms. Count-distinct reads a hashed sample, which keeps a
  * fraction `tau` of the column's domain, and divides by `tau`.
  *
  * @param j slot number: the statistic columns are named `a<j>_<stat>`
  */
final case class Estimator(call: AggCall, j: Int = 0, tau: Double = 1.0) {
  import AggFuncType._
  import Estimator._

  require(!call.func.isExtreme, s"no unbiased estimator for ${call.sqlExact}")

  private val stats: Seq[Stat] = {
    lazy val a = call.argSql.get
    val w   = Stat("w", p => s"sum(1.0 / $p)")
    val xw  = Stat("xw", p => s"sum(($a) / $p)")
    val x2w = Stat("x2w", p => s"sum(($a) * ($a) / $p)")
    call.func match {
      case Count => call.argSql match {
        case None | Some("1") => Seq(w)
        case Some(_) => Seq(Stat("w", p => s"sum(CASE WHEN ($a) IS NOT NULL THEN 1.0 / $p END)"))
      }
      case Sum                  => Seq(xw)
      case Avg                  => Seq(xw, w)
      case VarSamp | StddevSamp => Seq(xw, w, x2w)
      case Percentile(q)        => Seq(Stat("pct", _ => s"percentile(($a), $q)", additive = false))
      case CountDistinct        => Seq(Stat("cd", _ => s"count(DISTINCT ($a))"))
      case Min | Max            => Seq.empty // rejected by the require above
    }
  }

  private def col(s: Stat): String = s"a${j}_${s.name}"

  /** The combine step over the rendered statistics `v` (in `stats` order);
    * `total` scales an additive total to full-sample magnitude.
    */
  private def combine(v: Seq[String], total: String => String): String = {
    def moment = s"${v(2)} / ${v(1)} - power(${v(0)} / ${v(1)}, 2)"
    call.func match {
      case Count | Sum   => total(v(0))
      case Avg           => s"(${v(0)} / ${v(1)})"
      case VarSamp       => s"($moment)"
      case StddevSamp    => s"sqrt($moment)"
      case Percentile(_) => v(0)
      case CountDistinct => s"(${total(v(0))} / CAST($tau AS DOUBLE))"
      case Min | Max     => sys.error("unreachable: rejected on construction")
    }
  }

  /** L2 columns: each statistic over sampled rows whose probability is `p`. */
  def columns(p: String): Seq[String] = stats.map(s => s"${s.sql(s"($p)")} AS ${col(s)}")

  /** Point estimate over a group's L2 rows, which sums the statistics over
    * its subsamples (`vsid`).
    */
  def point: String = combine(stats.map { s =>
    if (s.additive) s"sum(${col(s)})" else s"(sum(${col(s)} * $SizeCol) / sum($SizeCol))"
  }, identity)

  /** Estimate from one L2 row, i.e. one of `b` subsamples. Totals scale by
    * b, the expected sample-to-subsample factor, not by the realised
    * n_g/sub_size of Query 9's window, which would cancel the subsample-size
    * randomness that is part of a Bernoulli sample's count variance.
    */
  def perSubsample(b: Int): String = combine(stats.map(col), x => s"($x * $b)")

  /** Single-level estimate over sampled rows whose probability is `p`: no
    * `vsid` and one aggregation, for a query that reports no error.
    */
  def single(p: String): String = combine(stats.map(_.sql(s"($p)")), identity)
}

object Estimator {

  /** L2 column holding the number of sampled rows in a (group, `vsid`). */
  val SizeCol = "vsub_size"

  /** A statistic: its column suffix and its SQL aggregate given p. Additive
    * statistics sum over subsamples; a percentile does not and is averaged,
    * weighted by subsample size.
    */
  private final case class Stat(name: String, sql: String => String,
                                additive: Boolean = true)

  /** One estimator per distinct aggregate call of `q` (select items, then
    * HAVING), in slot order; a repeated call shares its first slot.
    */
  def forQuery(q: FlatQuery, tau: Double): ListMap[AggCall, Estimator] = {
    val aggs = q.allAggs
    ListMap.from(aggs.distinct.map(c => c -> Estimator(c, aggs.indexOf(c), tau)))
  }
}
