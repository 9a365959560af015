package perfbench

import repro.exp.Workloads
import repro.exp.Workloads.WorkQuery

import perfbench.Check._

/** The two workloads: their queries, scale factor, Verdict settings and
  * the path each query is expected to take at that scale factor.
  */
object Queries {

  final case class Workload(name: String, sf: Double, hac: Option[Double],
                            queries: Seq[(WorkQuery, Path)])

  private def byName(n: String): WorkQuery = Workloads.all.find(_.name == n).get

  /** Shapes the middleware does not approximate (Table 1 / Section 2.2). */
  val unsupported: Seq[WorkQuery] = Seq(
    WorkQuery("pt-noagg",
      """SELECT l_orderkey, l_linenumber, l_quantity
        |FROM lineitem WHERE l_orderkey <= 25""".stripMargin),
    WorkQuery("pt-minmax",
      """SELECT l_returnflag, min(l_extendedprice) AS min_price,
        |  max(l_quantity) AS max_qty
        |FROM lineitem GROUP BY l_returnflag""".stripMargin),
    WorkQuery("pt-outer",
      """SELECT io_dow, count(*) AS cnt
        |FROM insta_orders LEFT OUTER JOIN order_items ON io_order_id = oi_order_id
        |GROUP BY io_dow""".stripMargin))

  /** Many groups, each with a small error: the stratified sample of
    * lineitem answers it, so HAC keeps it and it gives the workload enough
    * approximate cells for steady accuracy figures.
    */
  val strata: WorkQuery = WorkQuery("hac-strata",
    """SELECT l_returnflag, l_linestatus, avg(l_quantity) AS avg_qty,
      |  avg(l_extendedprice) AS avg_price, avg(l_discount) AS avg_disc,
      |  avg(l_tax) AS avg_tax
      |FROM lineitem GROUP BY l_returnflag, l_linestatus""".stripMargin)

  /** Section 2.2: an exact extreme part joined to an approximate mean part. */
  val decomposed: WorkQuery = WorkQuery("dc-lineitem",
    """SELECT l_returnflag, max(l_extendedprice) AS max_price,
      |  avg(l_quantity) AS avg_qty
      |FROM lineitem GROUP BY l_returnflag""".stripMargin)

  /** Both workloads run at SF 0.05: lineitem has 300k rows and its 1%
    * samples about 3k.
    */
  val Sf = 0.05

  /** AQP queries left out so that a run fits the benchmark's time budget:
    * iq6, which the planner declines at SF 0.05, and four queries whose
    * shape another query already covers (tq10 ~ tq5, tq12 ~ tq7,
    * tq19 ~ tq17, iq4 ~ iq1).
    */
  val aqpLeftOut = Set("iq6", "tq10", "tq12", "tq19", "iq4")

  val aqp = Workload("aqp", Sf, hac = None,
    Workloads.all.filter(q => q.expectAqp && !aqpLeftOut(q.name)).map(_ -> Approximate))

  /** HAC threshold on z * err / |estimate|. At SF 0.05 the kept queries'
    * largest ratio stays under 8% and the fallback queries' smallest over
    * 23%, so every execution takes the same path whatever the seed.
    */
  val HacMaxRelErr = 0.12

  val passthroughHac = Workload("passthrough-hac", Sf, hac = Some(HacMaxRelErr),
    Seq("tq3", "tq18").map(byName(_) -> Passthrough) ++
      unsupported.map(_ -> Passthrough) ++
      Seq(decomposed -> Decomposed) ++
      Seq(strata, byName("iq3"), byName("iq7")).map(_ -> Approximate) ++
      Seq("tq4", "tq14", "iq2").map(byName(_) -> HacFallback))

  val workloads: Seq[Workload] = Seq(aqp, passthroughHac)
}
