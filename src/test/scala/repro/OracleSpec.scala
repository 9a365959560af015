package repro

/** Self-test of the DuckDB oracle plumbing. */
class OracleSpec extends SparkSpec {

  test("oracle accepts an equivalent query") {
    import spark.implicits._
    val df = Seq(("a", 1.0), ("a", 2.0), ("b", 3.0)).toDF("g", "x")
    val got = spark.sql("SELECT g, sum(x) AS s FROM VALUES ('a', 1.0), ('a', 2.0), " +
      "('b', 3.0) AS t(g, x) GROUP BY g")
    Oracle.assertEquivalent(got, "SELECT g, sum(x::DOUBLE) AS s FROM t GROUP BY g",
      "t" -> df)
  }

  test("oracle rejects a wrong result") {
    import spark.implicits._
    val df = Seq(("a", 1.0), ("b", 3.0)).toDF("g", "x")
    val wrong = spark.sql("SELECT 'a' AS g, 99.0 AS s")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT g, sum(x::DOUBLE) AS s FROM t GROUP BY g",
        "t" -> df)
    }
  }

  test("oracle compares doubles at the reassociation bound, integers exactly") {
    import spark.implicits._
    val df = Seq(("a", 1.0, 1L), ("a", 2.0, 2L)).toDF("g", "x", "k")
    val exact = "SELECT g, sum(x::DOUBLE) AS s, sum(k::BIGINT) AS n FROM t GROUP BY g"
    // two input rows: doubles may differ by a relative 2 * 3 * 2^-53
    Oracle.assertEquivalent(spark.sql("SELECT 'a' AS g, 3.0000000000000004D AS s, " +
      "CAST(3 AS BIGINT) AS n"), exact, "t" -> df)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(spark.sql("SELECT 'a' AS g, 3.000000000001D AS s, " +
        "CAST(3 AS BIGINT) AS n"), exact, "t" -> df)
    }
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(spark.sql("SELECT 'a' AS g, 3.0D AS s, " +
        "CAST(4 AS BIGINT) AS n"), exact, "t" -> df)
    }
  }

  test("oracle rejects mismatched column sets") {
    import spark.implicits._
    val df = Seq(("a", 1.0)).toDF("g", "x")
    val got = spark.sql("SELECT 'a' AS wrongname")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, "SELECT g FROM t", "t" -> df)
    }
  }

  test("oracle handles NULLs canonically") {
    import spark.implicits._
    val df = Seq(("a", Some(1.0)), ("b", None)).toDF("g", "x")
    val got = spark.sql(
      "SELECT g, x FROM VALUES ('a', 1.0), ('b', CAST(NULL AS DOUBLE)) AS t(g, x)")
    Oracle.assertEquivalent(got, "SELECT g, x::DOUBLE AS x FROM t", "t" -> df)
  }
}
