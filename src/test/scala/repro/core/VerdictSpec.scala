package repro.core

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.{Oracle, SparkSpec, SynthData}

/** The middleware facade: pass-through behaviour, extreme-statistic
  * decomposition (Section 2.2), plans of several blocks, HAC (Section 2.4),
  * transparent mode, and the Appendix F default sampling policy.
  */
class VerdictSpec extends SparkSpec {

  private lazy val vExact = TestData.verdictExact

  test("non-aggregate queries pass through with exact results") {
    val r = vExact.sql("SELECT l_returnflag FROM lineitem WHERE l_quantity > 49 " +
      "GROUP BY l_returnflag")
    assert(!r.approximate)
    assert(r.notes.contains("unsupported") || r.notes.contains("no aggregates"))
  }

  test("extreme-only aggregate queries pass through") {
    val r = vExact.sql("SELECT max(l_extendedprice) AS m FROM lineitem")
    assert(!r.approximate)
    assert(r.notes.contains("extreme-only"))
    val exact = spark.sql("SELECT max(l_extendedprice) AS m FROM lineitem").head()
    assert(r.df.head().getDouble(0) == exact.getDouble(0))
  }

  test("mixed extreme + mean-like queries are decomposed (Section 2.2)") {
    val q = "SELECT l_returnflag, max(l_extendedprice) AS mx, avg(l_quantity) AS aq " +
      "FROM lineitem GROUP BY l_returnflag"
    val r = vExact.sql(q)
    assert(r.approximate)
    assert(r.notes.contains("decomposed"))
    assert(r.df.columns.toSeq.take(3) == Seq("l_returnflag", "mx", "aq"))
    val exact = spark.sql(q).collect()
      .map(x => x.getString(0) -> (x.getDouble(1), x.getDouble(2))).toMap
    r.df.collect().foreach { row =>
      val (mx, aq) = exact(row.getString(0))
      assert(row.getAs[Double]("mx") == mx, "extreme part must be exact")
      assert(math.abs(row.getAs[Double]("aq") - aq) < 1e-9,
        "mean-like part is exact at tau=1")
    }
  }

  test("queries against tables without samples pass through") {
    TestData.pa.createOrReplaceTempView("part_nosample")
    val r = vExact.sql("SELECT count(*) AS c FROM part_nosample")
    assert(!r.approximate)
  }

  test("unparseable SQL is not swallowed") {
    intercept[Exception](spark.sql("SELECT FROM WHERE"))
    val r = vExact.sql("SELECT count(*) AS c FROM lineitem WHERE l_quantity > 0 " +
      "AND exists (SELECT 1 FROM orders)")
    assert(!r.approximate) // EXISTS is unsupported -> passthrough, still answers
  }

  test("HAC: a violated accuracy requirement triggers an exact rerun") {
    import spark.implicits._
    val tiny = (1 to 400).map(i => (i % 5, i.toDouble)).toDF("g", "x")
    val v = new Verdict(spark,
      VerdictConfig(budgetFraction = 1.0, tau = 0.2,
        accuracyRequirement = Some(1e-9))) // impossible to satisfy
    v.registerTable("hac_t", tiny)
    v.createSample("hac_t", SampleType.Uniform, tau = 0.2)
    val r = v.sql("SELECT sum(x) AS s FROM hac_t")
    assert(!r.approximate, "HAC must fall back to the exact answer")
    assert(r.notes.contains("HAC"))
    assert(r.df.head().getDouble(0) == 400.0 * 401 / 2)
  }

  test("HAC: a satisfied accuracy requirement keeps the approximate answer") {
    import spark.implicits._
    val tiny = (1 to 400).map(i => (i % 5, i.toDouble)).toDF("g", "x")
    val v = new Verdict(spark,
      VerdictConfig(budgetFraction = 1.0, tau = 1.0,
        accuracyRequirement = Some(0.5)))
    v.registerTable("hac_u", tiny)
    v.createSample("hac_u", SampleType.Uniform, tau = 1.0)
    val r = v.sql("SELECT sum(x) AS s FROM hac_u")
    assert(r.approximate)
  }

  test("HAC: collecting a kept answer starts no Spark job") {
    import spark.implicits._
    val tiny = (1 to 400).map(i => (i % 5, i.toDouble)).toDF("g", "x")
    val v = new Verdict(spark,
      VerdictConfig(budgetFraction = 1.0, tau = 1.0,
        accuracyRequirement = Some(0.5)))
    v.registerTable("hac_k", tiny)
    v.createSample("hac_k", SampleType.Uniform, tau = 1.0)
    val r = v.sql("SELECT sum(x) AS s FROM hac_k")
    assert(r.approximate, r.notes)
    // the kept answer is the rows HAC already collected
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(spark.sparkContext)
    spark.sparkContext.addSparkListener(listener)
    try {
      assert(r.df.collect().head.getAs[Double]("s") == 400.0 * 401 / 2)
      ListenerBusDrain(spark.sparkContext)
    } finally spark.sparkContext.removeSparkListener(listener)
    assert(jobs.get == 0, "collecting a kept HAC answer must not run the query again")
  }

  test("HAC: a decomposed query that violates the requirement reruns exactly") {
    import spark.implicits._
    val tiny = (1 to 400).map(i => (i % 5, i.toDouble)).toDF("g", "x")
    val v = new Verdict(spark,
      VerdictConfig(budgetFraction = 1.0, tau = 0.2,
        accuracyRequirement = Some(1e-9))) // impossible to satisfy
    v.registerTable("hac_d", tiny)
    v.createSample("hac_d", SampleType.Uniform, tau = 0.2)
    val r = v.sql("SELECT g, max(x) AS mx, sum(x) AS s FROM hac_d GROUP BY g")
    assert(!r.approximate)
    assert(r.notes.startsWith("HAC violated"), r.notes)
    Oracle.assertEquivalent(r.df,
      "SELECT g::INTEGER AS g, max(x::DOUBLE) AS mx, sum(x::DOUBLE) AS s " +
        "FROM hac_d GROUP BY g", "hac_d" -> tiny)
  }

  test("transparent mode: errorColumns=false hides the *_err columns") {
    import spark.implicits._
    val tiny = (1 to 400).map(i => (i % 5, i.toDouble)).toDF("g", "x")
    val v = new Verdict(spark,
      VerdictConfig(budgetFraction = 1.0, tau = 1.0, errorColumns = false))
    v.registerTable("tm_t", tiny)
    v.createSample("tm_t", SampleType.Uniform, tau = 1.0)
    val r = v.sql("SELECT g, sum(x) AS s FROM tm_t GROUP BY g")
    assert(r.approximate)
    assert(r.df.columns.toSeq == Seq("g", "s"))
    assert(r.errColumns.isEmpty)
    // the single-level form at tau=1: exact answers, no subsamples
    val nested = v.sql("SELECT avg(s) AS a, count(*) AS c FROM " +
      "(SELECT g, sum(x) AS s, avg(x) AS m FROM tm_t GROUP BY g) t WHERE m > 0")
    assert(nested.approximate, nested.notes)
    for (res <- Seq(r, nested); sql = res.rewrittenSql.get)
      assert(!sql.contains("vsid") && !sql.contains("stddev_samp"), sql)
    Oracle.assertEquivalent(r.df,
      "SELECT g::INTEGER AS g, sum(x::DOUBLE) AS s FROM tm_t GROUP BY g", "tm_t" -> tiny)
    Oracle.assertEquivalent(nested.df,
      "SELECT avg(s) AS a, count(*) AS c FROM (SELECT g, sum(x::DOUBLE) AS s, " +
        "avg(x::DOUBLE) AS m FROM tm_t GROUP BY g) t WHERE m > 0", "tm_t" -> tiny)
  }

  test("error columns are present by default and named <alias>_err") {
    val r = vExact.sql("SELECT l_returnflag, count(*) AS c FROM lineitem " +
      "GROUP BY l_returnflag")
    assert(r.df.columns.toSeq == Seq("l_returnflag", "c", "c_err"))
    assert(r.errColumns == Map("c" -> "c_err"))
  }

  test("registerTable gathers row counts and cardinalities") {
    val st = vExact.tableStats("lineitem").get
    assert(st.rows == TestData.li.count())
    assert(st.cardinalities("l_returnflag") <= 4) // approx; 3 values
    assert(st.cardinalities("l_orderkey") > 100)
  }

  test("default sampling policy (Appendix F): uniform + hashed high-card + stratified low-card") {
    val df = SynthData.lineitem(spark, 0.001)
    val v  = new Verdict(spark, VerdictConfig(tau = 0.1))
    v.registerTable("policy_t", df)
    val infos = v.createDefaultSamples("policy_t", maxHashed = 1, maxStratified = 1,
      rowTarget = 600)
    assert(infos.exists(_.sampleType == SampleType.Uniform))
    val hashed = infos.filter(_.sampleType == SampleType.Hashed)
    assert(hashed.size == 1 && hashed.head.columns.size == 1)
    val strat = infos.filter(_.sampleType == SampleType.Stratified)
    assert(strat.size == 1 && strat.head.columns.size == 1)
    // hashed goes to a higher-cardinality column than stratified
    val st = v.tableStats("policy_t").get
    assert(st.cardinalities(hashed.head.columns.head.toLowerCase) >
      st.cardinalities(strat.head.columns.head.toLowerCase))
    assert(v.catalog.samplesFor("policy_t").size == infos.size)
  }

  test("confidence-interval multiplier matches the normal quantile") {
    val r = vExact.sql("SELECT count(*) AS c FROM lineitem")
    assert(math.abs(r.confidenceInterval(0.05) - 1.959964) < 1e-4)
  }

  test("count(1) is treated as count(*)") {
    val r = vExact.sql("SELECT count(1) AS c FROM lineitem")
    assert(r.approximate)
    val exact = spark.sql("SELECT count(1) AS c FROM lineitem").head().getLong(0)
    assert(math.abs(r.df.head().getAs[Double]("c") - exact) < 1e-6)
  }

  // ------------------------- several parts, one statement (one per defect) --

  /** tau = 1 over `nk_t(g, k, x)`: `g` is NULL in a quarter of the rows. */
  private lazy val nullKeyed = {
    import spark.implicits._
    val df = (1 to 400).map(i => (Option.when(i % 4 != 0)(i % 4), i % 3, i.toDouble))
      .toDF("g", "k", "x")
    val v = new Verdict(spark, VerdictConfig(budgetFraction = 2.0, tau = 1.0))
    v.registerTable("nk_t", df)
    v.createSample("nk_t", SampleType.Uniform, tau = 1.0)
    (v, df)
  }

  private def statements(r: VerdictResult): Seq[String] =
    r.rewrittenSql.toSeq.flatMap(_.split(";\n"))

  private def descending(r: VerdictResult, col: String): Unit = {
    val got = r.df.collect().map(_.getAs[Any](col).toString.toDouble).toSeq
    assert(got == got.sorted.reverse, s"$col not descending: $got")
  }

  test("a plan of several sampled blocks applies ORDER BY and LIMIT to the whole answer") {
    val q = "SELECT l_returnflag, count(distinct l_orderkey) AS cd, sum(l_quantity) AS s " +
      "FROM %s GROUP BY l_returnflag ORDER BY s DESC LIMIT 2"
    val sampled = TestData.verdictSampled.sql(q.format("lineitem_s"))
    assert(sampled.approximate, sampled.notes)
    assert(statements(sampled).size == 1)
    for (t <- Seq("lineitem_s_hashed_l_orderkey", "lineitem_s_stratified_l_returnflag"))
      assert(sampled.rewrittenSql.get.contains(t), s"one statement reads both blocks: $t")
    assert(sampled.df.columns.toSeq == Seq("l_returnflag", "cd", "s", "cd_err", "s_err"))
    assert(sampled.df.count() == 2)
    descending(sampled, "s")

    val exact = vExact.sql(q.format("lineitem"))
    assert(exact.approximate, exact.notes)
    descending(exact, "s")
    Oracle.assertEquivalent(exact.df.select("l_returnflag", "cd", "s"),
      "SELECT l_returnflag, count(distinct l_orderkey) AS cd, sum(l_quantity::DOUBLE) AS s " +
        "FROM lineitem GROUP BY l_returnflag ORDER BY s DESC LIMIT 2",
      "lineitem" -> TestData.li)
  }

  test("a decomposed query orders by its extreme item") {
    val q = "SELECT l_returnflag, max(l_extendedprice) AS mx, avg(l_quantity) AS aq " +
      "FROM lineitem GROUP BY l_returnflag ORDER BY mx DESC LIMIT 2"
    val r = vExact.sql(q)
    assert(r.approximate && r.notes.startsWith("decomposed"), r.notes)
    descending(r, "mx")
    Oracle.assertEquivalent(r.df.select("l_returnflag", "mx", "aq"),
      "SELECT l_returnflag, max(l_extendedprice::DOUBLE) AS mx, " +
        "avg(l_quantity::DOUBLE) AS aq FROM lineitem GROUP BY l_returnflag " +
        "ORDER BY mx DESC LIMIT 2", "lineitem" -> TestData.li)
  }

  test("a decomposed query keeps its NULL group") {
    val (v, df) = nullKeyed
    val r = v.sql("SELECT g, max(x) AS mx, avg(x) AS ax FROM nk_t GROUP BY g")
    assert(r.approximate && r.notes.startsWith("decomposed"), r.notes)
    Oracle.assertEquivalent(r.df.select("g", "mx", "ax"),
      "SELECT g::INTEGER AS g, max(x::DOUBLE) AS mx, avg(x::DOUBLE) AS ax " +
        "FROM nk_t GROUP BY g", "nk_t" -> df)
  }

  test("a decomposed query joins its parts on a GROUP BY key it does not select") {
    val (v, df) = nullKeyed
    val r = v.sql("SELECT max(x) AS mx, avg(x) AS ax FROM nk_t GROUP BY k")
    assert(r.approximate && r.notes.startsWith("decomposed"), r.notes)
    Oracle.assertEquivalent(r.df.select("mx", "ax"),
      "SELECT max(x::DOUBLE) AS mx, avg(x::DOUBLE) AS ax FROM nk_t GROUP BY k",
      "nk_t" -> df)
  }

  test("a nested query keeps the NULL group of its outer GROUP BY") {
    val (v, df) = nullKeyed
    val r = v.sql("SELECT g, sum(s) AS ss FROM " +
      "(SELECT g, k, sum(x) AS s FROM nk_t GROUP BY g, k) t GROUP BY g")
    assert(r.approximate, r.notes)
    assert(r.errColumns == Map("ss" -> "ss_err"))
    Oracle.assertEquivalent(r.df.select("g", "ss"),
      "SELECT g::INTEGER AS g, sum(s) AS ss FROM " +
        "(SELECT g, k, sum(x::DOUBLE) AS s FROM nk_t GROUP BY g, k) t GROUP BY g",
      "nk_t" -> df)
  }

  test("a nested query applies its outer HAVING") {
    val (v, df) = nullKeyed
    val r = v.sql("SELECT g, sum(s) AS ss FROM " +
      "(SELECT g, k, sum(x) AS s FROM nk_t GROUP BY g, k) t GROUP BY g HAVING sum(s) > 20050")
    assert(r.approximate, r.notes)
    Oracle.assertEquivalent(r.df.select("g", "ss"),
      "SELECT g::INTEGER AS g, sum(s) AS ss FROM " +
        "(SELECT g, k, sum(x::DOUBLE) AS s FROM nk_t GROUP BY g, k) t GROUP BY g " +
        "HAVING sum(s) > 20050", "nk_t" -> df)
  }

  test("a block the planner leaves on the base table is computed exactly") {
    // at tau = 1 samples tie with the base table, and the planner keeps
    // count-distinct on the base table
    val q = "SELECT l_returnflag, count(distinct l_orderkey) AS cd, sum(l_quantity) AS s " +
      "FROM lineitem GROUP BY l_returnflag"
    val r = vExact.sql(q)
    assert(r.approximate, r.notes)
    assert(statements(r).size == 1)
    assert(r.rewrittenSql.get.contains("FROM lineitem GROUP BY"), "cd reads the base table")
    assert(r.rewrittenSql.get.contains("lineitem_uniform"), "s reads the sample")
    assert(r.errColumns == Map("s" -> "s_err"))
    Oracle.assertEquivalent(r.df.select("l_returnflag", "cd", "s"),
      "SELECT l_returnflag, count(distinct l_orderkey) AS cd, sum(l_quantity::DOUBLE) AS s " +
        "FROM lineitem GROUP BY l_returnflag", "lineitem" -> TestData.li)
  }
}
