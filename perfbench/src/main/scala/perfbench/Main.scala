package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.commons.math3.special.Beta
import org.apache.spark.sql.{Row, SparkSession}

import repro.core._
import repro.exp.Experiments
import repro.exp.Workloads.WorkQuery
import repro.jobs.JobUtil
import repro.util.Stats

import perfbench.Check._
import perfbench.Queries.Workload

import scala.collection.mutable

/** The Verdict benchmark: one workload, one closed-loop client, one JVM.
  *
  * Untraced runs (`--trace 0`) time `verdict.sql(q)` plus collect next to
  * Spark's exact query for every workload query, check every answer, and
  * print the end-to-end metrics. Traced runs (`--trace 1`) replay each
  * query's public calls with spans and counters and print the per-layer
  * metrics. The last line of standard output is the JSON result.
  */
object Main {

  val Confidence = 0.95

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        data: String, heap: String, cores: Int)

  private def parseOpts(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    Opts(m("workload"), m("seed").toLong, m("seconds").toInt, m("trace") == "1",
      m("data"), m.getOrElse("heap", "?"), m.getOrElse("cores", "0").toInt)
  }

  def main(args: Array[String]): Unit = {
    val opts = parseOpts(args)
    val w = Queries.workloads.find(_.name == opts.workload).getOrElse {
      System.err.println(s"unknown workload ${opts.workload}; one of " +
        Queries.workloads.map(_.name).mkString(", "))
      sys.exit(2)
    }
    val spark = JobUtil.session("perfbench")
    phase("session started")
    val result = new Run(spark, w, opts).apply()
    spark.stop()
    phase("session stopped")
    println(result)
  }

  /** Progress on standard error, in seconds since the JVM started. */
  private[perfbench] def phase(name: String): Unit = {
    val up = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    System.err.println(f"perfbench: $name at $up%.1f s")
  }

  /** Harrell–Davis estimate of the p-quantile: a Beta-weighted mean of all
    * order statistics. With the few dozen timings one run affords, it moves
    * far less from run to run than a single order statistic does.
    */
  private[perfbench] def quantile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    val n = s.size
    val (a, b) = (p * (n + 1), (1 - p) * (n + 1))
    def cdf(x: Double) = Beta.regularizedBeta(x, a, b)
    s.indices.map(i => s(i) * (cdf((i + 1).toDouble / n) - cdf(i.toDouble / n))).sum
  }

  private[perfbench] def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
}

final class Run(spark: SparkSession, w: Workload, opts: Main.Opts) {
  import Main._

  private val z = Stats.normalQuantile(1 - (1 - Confidence) / 2)
  private val queries = w.queries

  private var attempted = 0L
  private var failed    = 0L

  private def fail(q: WorkQuery, why: String): Unit = {
    failed += 1
    System.err.println(s"perfbench: ${q.name}: $why")
  }

  def apply(): String = {
    val genS = Inputs.prepareBase(spark, opts.data, w.sf, opts.seed)
    val config = VerdictConfig(budgetFraction = Inputs.Budget, tau = Inputs.Tau,
      accuracyRequirement = w.hac, confidence = Confidence, seed = opts.seed)
    phase("generated")
    val (verdict, setup) = Inputs.setup(spark, opts.data, w.sf, config)
    val info = Seq("workload" -> w.name, "seed" -> opts.seed, "sf" -> w.sf,
      "parallelism" -> spark.sparkContext.defaultParallelism, "cores" -> opts.cores,
      "heap" -> opts.heap, "source" -> sys.env.getOrElse("PERFBENCH_SOURCE", "?"),
      "generate_s" -> genS, "trace" -> opts.trace)
    println("run " + Json.obj(info.map { case (k, v) => k -> Json.str(v.toString) }: _*))

    phase("set up")
    val shape = queries.map { case (q, _) => q.name -> Experiments.queryShape(verdict, q) }.toMap
    phase("ready")
    val metrics =
      if (opts.trace) traced(verdict, shape, setup)
      else timed(verdict, shape, setup)
    phase("measured")
    Json.result(correct = failed == 0, attempted, failed, metrics)
  }

  /** Check one Verdict answer; returns the approximate score, if any. */
  private def check(q: WorkQuery, expected: Path, res: VerdictResult, rows: Seq[Row],
                    exact: Seq[Row], shape: (Seq[String], Seq[String])): Option[Approx] = {
    val path = pathOf(res)
    if (path != expected) { fail(q, s"took $path, expected $expected (${res.notes})"); return None }
    path match {
      case Passthrough | HacFallback =>
        if (!sameRows(exact, rows)) fail(q, "passthrough answer differs from Spark's")
        None
      case Approximate | Decomposed =>
        val a = Check.approx(exact, res, rows, shape._1, shape._2, z)
        if (!a.groupsCovered) fail(q, "approximate answer misses exact groups")
        else if (!a.ok) fail(q, f"relative error ${a.relErr * 100}%.2f%% over the bound")
        Some(a)
    }
  }

  private def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Closed loop over whole passes of the workload until the run's seconds
    * are used; exact and Verdict alternate which goes first each pass.
    */
  private def passes(body: Int => Unit): Unit = {
    val start = System.nanoTime()
    var pass = 0
    var last = 0.0
    while (pass == 0 || (System.nanoTime() - start) / 1e9 + last / 2 < opts.seconds) {
      val t0 = System.nanoTime()
      body(pass)
      last = (System.nanoTime() - t0) / 1e9
      pass += 1
    }
  }

  private def setupMetrics(s: Inputs.SetupTimes): Seq[(String, Double, String)] = Seq(
    ("SampleCreator.uniform_ms", s.uniformMs, "ms"),
    ("SampleCreator.hashed_ms", s.hashedMs, "ms"),
    ("SampleCreator.stratified_ms", s.stratifiedMs, "ms"),
    ("SampleCreator.sample_rows", s.sampleRows.toDouble, "count"),
    ("Verdict.registerTable_ms", s.registerMs, "ms"))

  /** Exact answers of the first pass: the reference every Verdict answer
    * of the run is checked against.
    */
  private val reference = mutable.Map.empty[String, Seq[Row]]

  private def runExact(q: WorkQuery): Unit = {
    val rows = spark.sql(q.sql).collect().toSeq
    reference.getOrElseUpdate(q.name, rows)
  }

  private def timed(verdict: Verdict, shape: Map[String, (Seq[String], Seq[String])],
                    setup: Inputs.SetupTimes): Seq[(String, Double, String)] = {
    val vMs = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val eMs = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val relErrs = mutable.ArrayBuffer.empty[Double]
    var cells, covered = 0L
    passes { pass =>
      for ((q, expected) <- queries) {
        def timeExact(): Unit = {
          val t0 = System.nanoTime()
          runExact(q)
          eMs.getOrElseUpdate(q.name, mutable.ArrayBuffer.empty) += ms(t0)
        }
        def runVerdict(): Unit = {
          attempted += 1
          try {
            val t0   = System.nanoTime()
            val res  = verdict.sql(q.sql)
            val rows = res.df.collect().toSeq
            vMs.getOrElseUpdate(q.name, mutable.ArrayBuffer.empty) += ms(t0)
            check(q, expected, res, rows, reference(q.name), shape(q.name)).foreach { a =>
              relErrs ++= a.relErrs
              cells += a.cells; covered += a.cellsCovered
            }
          } catch { case e: Exception => fail(q, s"threw ${e.getMessage}") }
        }
        if (pass % 2 == 0) { timeExact(); runVerdict() } else { runVerdict(); timeExact() }
      }
    }
    val all = vMs.values.flatten.toSeq
    val speedups = vMs.keys.toSeq.map(k => median(eMs(k).toSeq) / median(vMs(k).toSeq))
    Seq(
      ("verdict_ms_p50", median(all), "ms"),
      ("verdict_ms_p90", quantile(all, 0.9), "ms"),
      ("exact_ms_p50", median(eMs.values.flatten.toSeq), "ms"),
      ("speedup_geomean", math.exp(speedups.map(math.log).sum / speedups.size), "x"),
      ("rel_err_pct", 100 * relErrs.sum / relErrs.size, "%"),
      ("ci_coverage", covered.toDouble / math.max(1L, cells), "fraction"),
      ("setup_s", setup.totalS, "s"))
  }

  private def traced(verdict: Verdict, shape: Map[String, (Seq[String], Seq[String])],
                     setup: Inputs.SetupTimes): Seq[(String, Double, String)] = {
    val counters = new SparkCounters(spark)
    spark.sparkContext.addSparkListener(counters)
    val replay = new Replay(spark, verdict, counters)
    var real, exactSide = Snap.Zero
    val e2eMs = mutable.ArrayBuffer.empty[Double]
    var executions = 0L
    var passthrough, decomposed, fallbacks = 0L
    var candidates, blocks, sqlChars = 0L
    val bs = mutable.ArrayBuffer.empty[Int]
    var instrumentNs = 0L
    var replaySeed = opts.seed * 7919 + 1
    passes { pass =>
      for (((q, expected), i) <- queries.zipWithIndex) {
        val qid = s"${q.name}#$pass"
        attempted += 1
        replaySeed += 7919
        // Whichever of the real call and the replay runs second finds the
        // whole-stage code that does not depend on the query seed already
        // compiled, so the two alternate which goes first.
        val replayFirst = (pass + i) % 2 == 1
        def replayQuery(path: Path): Plans = {
          val plans = replay.run(qid, q.sql, path, replaySeed)
          candidates += plans.candidates; blocks += plans.blocks
          sqlChars += plans.sqlChars; bs ++= plans.bs
          plans
        }
        try {
          val early = if (replayFirst) Some(replayQuery(expected)) else None
          val i0 = System.nanoTime()
          val s0 = counters.snapshot()
          val t0 = System.nanoTime()
          runExact(q)
          val t1 = System.nanoTime()
          val s1 = counters.snapshot()
          val t2 = System.nanoTime()
          val res  = verdict.sql(q.sql)
          val rows = res.df.collect().toSeq
          val t3 = System.nanoTime()
          val s2 = counters.snapshot()
          instrumentNs += (t0 - i0) + (t2 - t1) + (System.nanoTime() - t3)
          exactSide += s1 - s0
          real += s2 - s1
          e2eMs += (t3 - t2) / 1e6
          executions += 1
          val path = pathOf(res)
          check(q, expected, res, rows, reference(q.name), shape(q.name))
          path match {
            case Passthrough => passthrough += 1
            case Decomposed  => decomposed += 1
            case HacFallback => fallbacks += 1
            case Approximate =>
          }
          val plans = early.getOrElse(replayQuery(path))
          // the replay must pick what the real call picked
          res.rewrittenSql.foreach { sql =>
            val stmts = sql.split(";\n").toSeq
            val used = verdict.catalog.allSamples.map(_.sampleTable)
              .filter(t => stmts.exists(s => s"\\b$t\\b".r.findFirstIn(s).isDefined)).toSet
            if (stmts.size != plans.blocks || used != plans.sampleTables)
              fail(q, s"replay chose ${plans.blocks} blocks on ${plans.sampleTables}, " +
                s"Verdict ran ${stmts.size} on $used")
          }
        } catch { case e: Exception => fail(q, s"threw ${e.getMessage}") }
      }
    }
    spark.sparkContext.removeSparkListener(counters)
    writeSpans(replay.spans.toSeq)

    val n = executions.toDouble
    def layer(name: String): Double =
      replay.spans.filter(_.name == name).map(_.ms).sum / n
    val layers = Seq("parse", "CatalystConverter", "SamplePlanner", "Rewriter",
      "spark.analyze", "spark.optimize", "spark.physical", "spark.execute")
    val layerMs = layers.map(layer)
    val e2eMean = e2eMs.sum / n
    def ratio(a: Long, b: Long) = if (b == 0) 0.0 else a.toDouble / b
    Seq(
      ("parse.ms", layerMs(0), "ms"),
      ("CatalystConverter.ms", layerMs(1), "ms"),
      ("SamplePlanner.ms", layerMs(2), "ms"),
      ("SamplePlanner.candidates", candidates / n, "count"),
      ("SamplePlanner.blocks", blocks / n, "count"),
      ("Rewriter.ms", layerMs(3), "ms"),
      ("Rewriter.sql_chars", sqlChars / n, "count"),
      ("Rewriter.b", if (bs.isEmpty) 0.0 else bs.sum.toDouble / bs.size, "count"),
      ("spark.analyze_ms", layerMs(4), "ms"),
      ("spark.optimize_ms", layerMs(5), "ms"),
      ("spark.physical_ms", layerMs(6), "ms"),
      ("spark.execute_ms", layerMs(7), "ms"),
      ("spark.jobs", real.jobs / n, "count"),
      ("spark.stages", real.stages / n, "count"),
      ("spark.tasks", real.tasks / n, "count"),
      ("spark.task_cpu_ms", real.cpuNs / 1e6 / n, "ms"),
      ("spark.shuffle_write_bytes", real.shuffleWrite / n, "bytes"),
      ("spark.shuffle_read_bytes", real.shuffleRead / n, "bytes"),
      ("spark.input_rows", real.inputRows / n, "count"),
      ("spark.codegen_compiles", real.compiles / n, "count"),
      ("spark.codegen_compile_ms", real.compileNs / 1e6 / n, "ms"),
      ("exact.codegen_compiles", exactSide.compiles / n, "count"),
      ("exact.input_rows", exactSide.inputRows / n, "count"),
      ("exact.shuffle_write_bytes", exactSide.shuffleWrite / n, "bytes"),
      ("work.input_rows_ratio", ratio(real.inputRows, exactSide.inputRows), "ratio"),
      ("work.shuffle_bytes_ratio", ratio(real.shuffleWrite, exactSide.shuffleWrite), "ratio"),
      ("Verdict.post_ms", e2eMean - layerMs.sum, "ms"),
      ("Verdict.passthrough", passthrough / n, "count"),
      ("Verdict.decomposed", decomposed / n, "count"),
      ("Verdict.hac_fallbacks", fallbacks / n, "count"),
      ("trace.verdict_ms", e2eMean, "ms"),
      ("trace.verdict_ms_p50", median(e2eMs.toSeq), "ms"),
      ("trace.layers_ms", layerMs.sum, "ms"),
      ("trace.overhead_ms", (instrumentNs + replay.instrumentNs) / 1e6 / n, "ms"),
      ("error_rate", failed.toDouble / math.max(1L, attempted), "fraction")) ++ setupMetrics(setup)
  }

  /** Spans, one JSON object a line, next to the run's data. */
  private def writeSpans(spans: Seq[Span]): Unit = {
    val path = Paths.get(opts.data).resolveSibling("trace")
      .resolve(s"${w.name}-seed${opts.seed}.jsonl")
    Files.createDirectories(path.getParent)
    val lines = spans.map { s =>
      val c = s.counters
      Json.obj("qid" -> Json.str(s.qid), "name" -> Json.str(s.name),
        "parent" -> Json.str(s.parent), "start_ns" -> s.startNs.toString,
        "end_ns" -> s.endNs.toString, "jobs" -> c.jobs.toString,
        "tasks" -> c.tasks.toString, "input_rows" -> c.inputRows.toString,
        "codegen_compiles" -> c.compiles.toString)
    }
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

/** Minimal JSON rendering for the result line. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c    => c.toString
    } + "\""

  def obj(kv: (String, String)*): String =
    kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def result(correct: Boolean, attempted: Long, failed: Long,
             metrics: Seq[(String, Double, String)]): String =
    obj("correct" -> correct.toString, "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> obj(metrics.map { case (n, v, u) =>
        n -> obj("value" -> (if (v.isNaN || v.isInfinite) "null" else v.toString),
          "unit" -> str(u))
      }: _*))
}
