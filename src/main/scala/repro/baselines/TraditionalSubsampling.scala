package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.util.Stats

/** Traditional subsampling expressed in SQL (Section 4.1, Query 1).
  *
  * Each of the b subsamples is an (approximately) n_s-sized simple random
  * sample of the n-row sample, and a tuple may belong to several
  * subsamples. Construction therefore costs O(b*n): the sample is
  * cross-joined with the subsample-id range and each (tuple, sid) pair kept
  * with probability n_s/n — this materialized `*_subsamples` relation is
  * exactly the paper's `orders_subsamples`. (The paper's Query 1 then
  * aggregates via b `sum(case when sid=j ...)` columns; we aggregate by
  * `GROUP BY sid`, which has identical asymptotics but does not stress the
  * engine's codegen with thousands of projections.)
  */
object TraditionalSubsampling {

  final case class Result(estimate: Double, stderr: Double,
                          ciLo: Double, ciHi: Double, b: Int)

  /** Estimate `aggExpr` (a SQL aggregate over the sample view, already HT-
    * weighted by the caller if needed) with subsampling error bounds.
    *
    * @param scale  multiplier mapping the per-subsample aggregate to the
    *               full-sample magnitude (1 for avg; n/n_s for sum/count)
    */
  def estimate(spark: SparkSession, sampleView: String, aggExpr: String,
               where: Option[String], n: Long, ns: Long, b: Int,
               scaleToSample: Double, confidence: Double = 0.95,
               seed: Long = 17): Result = {
    val w = where.map(x => s" WHERE $x").getOrElse("")
    // O(b*n) construction of the subsamples relation. rand(seed) draws a
    // fresh uniform per (tuple, subsample) row of the cross join.
    val sub =
      s"""SELECT s.*, sids.id AS sid
         |FROM $sampleView s CROSS JOIN range(1, ${b + 1}) sids
         |WHERE rand($seed) < ${ns.toDouble / n}""".stripMargin
    val perSub = spark.sql(
      s"SELECT sid, $aggExpr AS est, count(*) AS sz FROM ($sub) t$w GROUP BY sid")
      .collect()
    val full = spark.sql(
      s"SELECT $aggExpr AS est FROM $sampleView t$w").head().getAs[Any]("est")
      .toString.toDouble

    val ests  = perSub.map(r => r.getAs[Any]("est").toString.toDouble * scaleToSample).toSeq
    val alpha = 1 - confidence
    // deviations sqrt(n_s) (g_i - g_0), scaled back by 1/sqrt(n)
    val devs = ests.map(e => math.sqrt(ns.toDouble) * (e - full))
    val lo   = full - Stats.quantile(devs, 1 - alpha / 2) / math.sqrt(n.toDouble)
    val hi   = full - Stats.quantile(devs, alpha / 2) / math.sqrt(n.toDouble)
    val stderr = Stats.stddev(ests) * math.sqrt(ns.toDouble / n)
    Result(full, stderr, lo, hi, ests.size)
  }
}
