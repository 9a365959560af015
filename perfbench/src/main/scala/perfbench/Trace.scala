package perfbench

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusAccess
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator

import repro.core._
import repro.core.Ast._
import repro.core.SamplePlanner._

import scala.collection.mutable

/** Counters of Spark work: a listener for jobs, stages and task metrics, and
  * Spark's own codegen metrics for compiles and compile time.
  */
final class SparkCounters(spark: SparkSession) extends SparkListener {
  private val jobs, stages, tasks, cpuNs, shuffleWrite, shuffleRead, inputRows =
    new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    stages.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      cpuNs.addAndGet(m.executorCpuTime)
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
      inputRows.addAndGet(m.inputMetrics.recordsRead)
    }
  }

  /** Wait for queued listener events, then read every counter. */
  def snapshot(): Snap = {
    ListenerBusAccess.drain(spark.sparkContext)
    Snap(jobs.get, stages.get, tasks.get, cpuNs.get, shuffleWrite.get,
      shuffleRead.get, inputRows.get,
      CodegenMetrics.METRIC_COMPILATION_TIME.getCount, CodeGenerator.compileTime)
  }
}

final case class Snap(jobs: Long, stages: Long, tasks: Long, cpuNs: Long,
                      shuffleWrite: Long, shuffleRead: Long, inputRows: Long,
                      compiles: Long, compileNs: Long) {
  def -(o: Snap): Snap = Snap(jobs - o.jobs, stages - o.stages, tasks - o.tasks,
    cpuNs - o.cpuNs, shuffleWrite - o.shuffleWrite, shuffleRead - o.shuffleRead,
    inputRows - o.inputRows, compiles - o.compiles, compileNs - o.compileNs)
  def +(o: Snap): Snap = Snap(jobs + o.jobs, stages + o.stages, tasks + o.tasks,
    cpuNs + o.cpuNs, shuffleWrite + o.shuffleWrite, shuffleRead + o.shuffleRead,
    inputRows + o.inputRows, compiles + o.compiles, compileNs + o.compileNs)
}
object Snap { val Zero: Snap = Snap(0, 0, 0, 0, 0, 0, 0, 0, 0) }

/** One traced call: layer name, start and end (ns), the span that caused it,
  * and the counters it moved. All spans of one query execution share `qid`.
  */
final case class Span(qid: String, name: String, startNs: Long, endNs: Long,
                      parent: String, counters: Snap) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Planner and rewriter counts of one replayed query. */
final case class Plans(candidates: Long, blocks: Int, sqlChars: Long,
                       bs: Seq[Int], sampleTables: Set[String])

/** Replays, outside in, the public calls `Verdict.sql` makes for one query,
  * with one span per call:
  *   parse -> CatalystConverter -> SamplePlanner -> Rewriter ->
  *   spark.analyze (spark.sql) -> spark.optimize (optimizedPlan) ->
  *   spark.physical (executedPlan) -> spark.execute (collect).
  * Which statements run is decided by the query's path (the one the real
  * call took, or the expected one when the replay goes first), so a HAC
  * fallback replays both the approximate statement HAC collects and the
  * exact rerun, and a kept HAC answer is executed twice, as Verdict does.
  */
final class Replay(spark: SparkSession, verdict: Verdict, counters: SparkCounters) {

  /** Time spent draining the listener bus and reading counters. */
  var instrumentNs = 0L
  val spans = mutable.ArrayBuffer.empty[Span]

  private var qid = ""

  private def span[A](name: String)(f: => A): A = {
    val i0 = System.nanoTime()
    val before = counters.snapshot()
    val t0 = System.nanoTime()
    val r = f
    val t1 = System.nanoTime()
    val after = counters.snapshot()
    instrumentNs += (t0 - i0) + (System.nanoTime() - t1)
    spans += Span(qid, name, t0, t1, "query", after - before)
    r
  }

  private def execute(sql: String, times: Int = 1): Unit = {
    val df: DataFrame = span("spark.analyze")(spark.sql(sql))
    span("spark.optimize")(df.queryExecution.optimizedPlan)
    span("spark.physical")(df.queryExecution.executedPlan)
    (1 to times).foreach(_ => span("spark.execute")(df.collect()))
  }

  private def lookup: CatalystConverter.SchemaLookup = alias =>
    scala.util.Try(spark.table(alias).columns.toSeq).toOption

  /** The planner's input, built as `Verdict` builds it. */
  private def sources(q: FlatQuery): Seq[SourceInfo] = {
    val (bases, conds) = q.from match {
      case Seq(DerivedTable(inner, _)) =>
        (inner.from.collect { case b: BaseTable => b }, inner.joinConds)
      case srcs => (srcs.collect { case b: BaseTable => b }, q.joinConds)
    }
    bases.map { s =>
      val st = verdict.tableStats(s.name)
      SourceInfo(s.alias, s.name, st.map(_.rows).getOrElse(0L),
        verdict.catalog.samplesFor(s.name),
        conds.flatMap(_.colFor(s.alias)).toSet,
        st.map(_.cardinalities).getOrElse(Map.empty),
        lookup(s.name).getOrElse(Seq.empty))
    }
  }

  /** Replay one query along `path`; `seed` is a fresh query seed, as
    * `Verdict` draws one per call.
    */
  def run(id: String, sql: String, path: Check.Path, seed: Long): Plans = {
    qid = id
    var plans = Plans(0, 0, 0, Nil, Set.empty)
    val hacOn = verdict.config.accuracyRequirement.isDefined

    def approximate(q: FlatQuery): Unit = {
      val aggs = q.allAggs
      val cfg  = verdict.config.plannerConfig.copy(budgetFraction = verdict.config.budgetFraction)
      val groupCols = q.groupBy.map(_.sqlText)
      val (srcs, planned) = span("SamplePlanner") {
        val s = sources(q)
        (s, SamplePlanner.plan(aggs, s, groupCols, cfg))
      }
      plans = plans.copy(candidates = plans.candidates +
        SamplePlanner.rawCandidateCount(aggs, srcs, groupCols, cfg))
      planned match {
        case None => execute(sql)
        case Some(plan) =>
          val rewritten = plan.blocks.zipWithIndex.map { case (blk, bi) =>
            span("Rewriter") {
              val blockAggs = blk.aggIdxs.map(aggs)
              val items = q.aggItems.filter(_.expr.aggs.forall(blockAggs.contains))
              val single = plan.blocks.size == 1
              val sub = q.copy(select = q.plainItems ++ items,
                orderBy = if (single) q.orderBy else Seq.empty,
                limit = if (single) q.limit else None)
              Rewriter.rewrite(sub, blk.choices, seed + bi)
            }
          }.collect { case scala.Right(rw) => rw }
          plans = plans.copy(blocks = plans.blocks + plan.blocks.size,
            sqlChars = plans.sqlChars + rewritten.map(_.sql.length).sum,
            bs = plans.bs ++ rewritten.map(_.b),
            sampleTables = plans.sampleTables ++ plan.blocks.flatMap(
              _.choices.values.flatMap(_.sample.map(_.sampleTable))))
          val executions = if (hacOn && path != Check.HacFallback) 2 else 1
          rewritten.foreach(rw => execute(rw.sql, executions))
          if (path == Check.HacFallback) execute(sql)
      }
    }

    val plan = span("parse")(spark.sessionState.sqlParser.parsePlan(sql))
    span("CatalystConverter")(CatalystConverter.convert(plan, lookup)) match {
      case scala.Left(_) => execute(sql)
      case scala.Right(q) if q.allAggs.isEmpty => execute(sql)
      case scala.Right(q) if q.hasExtreme =>
        val (extreme, mean) = q.aggItems.partition(_.expr.aggs.exists(_.func.isExtreme))
        if (mean.isEmpty || extreme.exists(_.expr.aggs.exists(!_.func.isExtreme)))
          execute(sql)
        else {
          execute(q.copy(select = q.plainItems ++ extreme, having = None,
            orderBy = Seq.empty, limit = None).sqlExact)
          approximate(q.copy(select = q.plainItems ++ mean))
        }
      case scala.Right(q) => approximate(q)
    }
    plans
  }
}
