package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.SynthData
import repro.core._
import repro.data.InstaData
import repro.exp.BenchData

import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration

/** Seeded base tables and the timed sample set-up.
  *
  * Base tables are generated from the workload seed into the benchmark's
  * own data directory, using the same `sf<n>/<table>` layout as
  * [[repro.exp.BenchData]]. Set-up then repeats the steps of
  * `BenchData.standardEnv` (register every base table, materialise its
  * sample suite) with each call timed.
  */
object Inputs {

  val TpchTables  = Seq("lineitem", "orders", "customer", "part")
  val InstaTables = Seq("order_items", "insta_orders", "insta_products")
  val BaseTables  = TpchTables ++ InstaTables

  /** `BenchData.standardEnv`'s sample suite: (base table, type, columns). */
  val SampleSuite: Seq[(String, SampleType, Seq[String])] = Seq(
    ("lineitem", SampleType.Uniform, Nil),
    ("lineitem", SampleType.Hashed, Seq("l_orderkey")),
    ("lineitem", SampleType.Stratified, Seq("l_returnflag", "l_linestatus")),
    ("orders", SampleType.Uniform, Nil),
    ("orders", SampleType.Hashed, Seq("o_orderkey")),
    ("order_items", SampleType.Uniform, Nil),
    ("order_items", SampleType.Hashed, Seq("oi_order_id")),
    ("insta_orders", SampleType.Uniform, Nil),
    ("insta_orders", SampleType.Hashed, Seq("io_order_id")))

  val Tau    = 0.01
  val Budget = 0.05

  private def tableDir(dir: String, sf: Double, table: String): String =
    s"$dir/sf${(sf * 1000).toInt}/$table"

  /** Each table gets its own seed range, derived from the workload seed. */
  private def generator(spark: SparkSession, table: String, sf: Double,
                        seed: Long): DataFrame = {
    val s = seed * 1000 + BaseTables.indexOf(table) * 100
    table match {
      case "lineitem"       => SynthData.lineitem(spark, sf, s)
      case "orders"         => SynthData.orders(spark, sf, s)
      case "customer"       => SynthData.customer(spark, sf, s)
      case "part"           => SynthData.part(spark, sf, s)
      case "order_items"    => InstaData.orderItems(spark, sf, s)
      case "insta_orders"   => InstaData.instaOrders(spark, sf, s)
      case "insta_products" => InstaData.instaProducts(spark, sf, s)
    }
  }

  /** Write the base tables for (sf, seed) and register them as
    * Parquet-backed views; returns the seconds spent. Every run writes them
    * afresh, so a run never reads another run's (or a partial) output, and
    * every run warms its JVM with the same work before set-up.
    */
  def prepareBase(spark: SparkSession, dir: String, sf: Double, seed: Long): Double = {
    val t0 = System.nanoTime()
    // the tables are independent, so they are written concurrently
    val writes = BaseTables.map { t =>
      Future(generator(spark, t, sf, seed).write.mode("overwrite").parquet(tableDir(dir, sf, t)))
    }
    Await.result(Future.sequence(writes), Duration.Inf)
    BaseTables.foreach(t => spark.read.parquet(tableDir(dir, sf, t)).createOrReplaceTempView(t))
    (System.nanoTime() - t0) / 1e9
  }

  /** Timings of one set-up, in milliseconds per step. */
  final case class SetupTimes(registerMs: Double, uniformMs: Double,
                              hashedMs: Double, stratifiedMs: Double,
                              sampleRows: Long) {
    def totalS: Double = (registerMs + uniformMs + hashedMs + stratifiedMs) / 1e3
  }

  /** Build a fresh `Verdict` over the registered base views: register every
    * base table and materialise the sample suite to Parquet.
    */
  def setup(spark: SparkSession, dir: String, sf: Double,
            config: VerdictConfig): (Verdict, SetupTimes) = {
    val verdict = new Verdict(spark, config)
    val env     = BenchData.Env(spark, verdict, sf, dir)
    val registerMs = BaseTables.map { t =>
      ms(verdict.registerTable(t, spark.table(t)))
    }.sum
    val byType = SampleSuite.map { case (table, kind, cols) =>
      kind -> ms(BenchData.materializeSample(env, table, kind, cols, config.tau))
    }
    def total(kind: SampleType) = byType.collect { case (`kind`, t) => t }.sum
    val rows = verdict.catalog.allSamples.map(_.sampleRows).sum
    (verdict, SetupTimes(registerMs, total(SampleType.Uniform),
      total(SampleType.Hashed), total(SampleType.Stratified), rows))
  }

  def ms(f: => Any): Double = {
    val t0 = System.nanoTime()
    f
    (System.nanoTime() - t0) / 1e6
  }
}
