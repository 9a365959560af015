package perfbench

import org.apache.spark.sql.Row

import repro.core.VerdictResult

/** Answer checks. Every Verdict answer is compared with Spark's exact answer
  * to the same SQL, computed in the same run on the same data.
  */
object Check {

  /** The route a query took through the middleware. */
  sealed trait Path
  case object Approximate extends Path
  case object Passthrough extends Path
  case object Decomposed  extends Path
  case object HacFallback extends Path

  def pathOf(r: VerdictResult): Path =
    if (r.notes.startsWith("HAC violated")) HacFallback
    else if (r.approximate && r.notes.startsWith("decomposed")) Decomposed
    else if (r.approximate) Approximate
    else Passthrough

  /** Largest mean relative error (over an answer's cells) an approximate
    * answer may have. The check is for estimator defects: a missing 1/p
    * scale leaves an estimate 99% low, an extra one makes it 100 times too
    * high. Sampling error alone stays below it: the most selective query,
    * tq14, reports a 95% interval of about +-40% at SF 0.05 and was seen
    * 58% off.
    */
  val MaxRelErr = 0.9

  /** Relative tolerance for floating-point cells of exact answers: Spark may
    * merge partial sums in a different order from one run to the next.
    */
  val FloatTol = 1e-9

  private def isFloat(v: Any): Boolean = v match {
    case _: Double | _: Float | _: java.math.BigDecimal => true
    case _                                              => false
  }

  private def num(v: Any): Double = v.toString.toDouble

  private def sortKey(r: Row): String =
    r.toSeq.map {
      case null          => "∅"
      case v if isFloat(v) => f"${num(v)}%.6g"
      case v             => v.toString
    }.mkString("|")

  /** Rows equal as multisets: exact for integers and strings, within
    * [[FloatTol]] for floating-point cells.
    */
  def sameRows(a: Seq[Row], b: Seq[Row]): Boolean =
    a.size == b.size && a.sortBy(sortKey).zip(b.sortBy(sortKey)).forall {
      case (x, y) => x.size == y.size && (0 until x.size).forall { i =>
        (x.get(i), y.get(i)) match {
          case (null, null)                   => true
          case (null, _) | (_, null)          => false
          case (u, v) if isFloat(u) || isFloat(v) =>
            val (du, dv) = (num(u), num(v))
            math.abs(du - dv) <= FloatTol * math.max(1.0, math.max(math.abs(du), math.abs(dv)))
          case (u, v)                         => u == v
        }
      }
    }

  private def groupKey(r: Row, cols: Seq[String]): String =
    cols.map(c => Option(r.getAs[Any](c)).map(_.toString).getOrElse("∅")).mkString("|")

  /** Quality of one approximate answer against the exact rows: the
    * relative error of every cell whose exact value is non-zero, and how
    * many cells have an error column whose interval covers the exact value.
    */
  final case class Approx(groupsCovered: Boolean, relErrs: Seq[Double],
                          cells: Int, cellsCovered: Int) {
    def relErr: Double = if (relErrs.isEmpty) Double.NaN else relErrs.sum / relErrs.size
    def ok: Boolean = groupsCovered && !relErr.isNaN && relErr <= MaxRelErr
  }

  /** Score an approximate answer, matching rows on the grouping columns:
    * every exact group must be present, and a cell is covered when
    * |estimate - exact| <= z * err.
    */
  def approx(exact: Seq[Row], r: VerdictResult, rows: Seq[Row],
             groupCols: Seq[String], aggCols: Seq[String], z: Double): Approx = {
    def cell(row: Row, c: String): Option[Double] = Option(row.getAs[Any](c)).map(num)
    val exactBy = exact.map(e => groupKey(e, groupCols) -> e).toMap
    val have    = rows.map(groupKey(_, groupCols)).toSet
    val matched = rows.flatMap(a => exactBy.get(groupKey(a, groupCols)).map(a -> _))
    val relErrs = for {
      (a, e) <- matched
      c      <- aggCols
      ev     <- cell(e, c).toSeq if ev != 0.0
      av     <- cell(a, c).toSeq
    } yield math.abs(av - ev) / math.abs(ev)
    val covered = for {
      (a, e)           <- matched
      (estCol, errCol) <- r.errColumns.toSeq
      est <- cell(a, estCol).toSeq
      err <- cell(a, errCol).toSeq
      ev  <- cell(e, estCol).toSeq
    } yield math.abs(est - ev) <= z * err
    Approx(exact.forall(e => have.contains(groupKey(e, groupCols))), relErrs,
      covered.size, covered.count(identity))
  }
}
