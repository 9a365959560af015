package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import scala.jdk.CollectionConverters._

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  *
  * Integer, string and NULL cells must be equal. Floating-point cells
  * (double, float, decimal) compare at a relative tolerance from the
  * reassociation bound: n terms x_i summed in any order land within
  * (n - 1)·u·Σ|x_i| of their exact sum (u = 2^-53), so two engines adding
  * in different orders differ by at most 2(n - 1)·u·Σ|x_i|. n is taken as
  * the input tables' total row count (bounding the terms of an aggregate
  * over them or their foreign-key joins) and the terms as one-signed
  * (Σ|x_i| = |Σ x_i|), true of every checked query; a cancelling sum needs
  * its own bound. The tolerance is 2(n + 1)·u: the extra 4u covers each
  * side's final division in an average.
  */
object Oracle {

  private val UnitRoundoff = math.ulp(1.0) / 2

  private def float(x: Any): Option[Double] = x match {
    case d: Double                => Some(d)
    case f: Float                 => Some(f.toDouble)
    case bd: java.math.BigDecimal => Some(bd.doubleValue)
    case _                        => None
  }

  /** Cells in column-name order; rows sorted by their exact cells, then by
    * their floating-point cells' values.
    */
  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[Any]] = {
    import Ordering.Double.TotalOrdering
    import Ordering.Implicits.seqOrdering
    val idx = cols.sorted.map(cols.indexOf)
    rows.map(r => idx.map(r.get)).sortBy(cells =>
      (cells.filter(float(_).isEmpty).mkString("\u0000"), cells.flatMap(float)))
  }

  private def sameCell(tol: Double)(a: Any, b: Any): Boolean = (float(a), float(b)) match {
    case (Some(x), Some(y)) =>
      x.equals(y) || math.abs(x - y) <= tol * math.max(math.abs(x), math.abs(y))
    case _ => String.valueOf(a) == String.valueOf(b)
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      var inputRows = 0L
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        val rows = df.collect()
        inputRows += rows.length
        rows.foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      val tol = 2 * (inputRows + 1) * UnitRoundoff
      val diff = got.zipAll(exp, Seq.empty, Seq.empty).find { case (g, e) =>
        g.size != e.size || !g.zip(e).forall { case (a, b) => sameCell(tol)(a, b) }
      }
      require(diff.isEmpty,
        s"result mismatch (${got.size} vs ${exp.size} rows, relative tolerance $tol " +
          s"on floating-point cells): first differing rows spark=${diff.map(_._1)} " +
          s"duckdb=${diff.map(_._2)}"
      )
    } finally conn.close()
  }
}
