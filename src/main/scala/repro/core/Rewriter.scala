package repro.core

import scala.collection.immutable.ListMap

import repro.core.Ast._
import repro.core.Estimator.SizeCol
import repro.core.SamplePlanner.{TableChoice, UseBase, UseSample}
import repro.core.VariationalSubsampling._

/** The AQP Rewriter (Sections 4, 5 and Appendix G).
  *
  * Given a supported query and the tables each of its blocks reads, emits a
  * single standard-SQL statement that the engine can execute to produce,
  * per output group, both the unbiased (Horvitz–Thompson) point estimate and
  * the variational-subsampling error estimate. Each sampled part has the
  * shape of the paper's Query 9 less its `n_g` window (see
  * `Estimator.perSubsample`):
  *
  *  L1  `renderSources`: each sample table, aliased by the original table
  *      name, with a `vsid` subsample-id column
  *  L2  GROUP BY (group-cols, combined vsid): each aggregate's `Estimator`
  *      statistics, weighted by 1/sampling_prob, plus the subsample size
  *  L3  GROUP BY (group-cols): point estimates from the summed statistics,
  *      error = stddev(per-vsid estimate) * sqrt(avg(sub_size)/sum(sub_size))
  *
  * Joined variational tables get their sid reassigned via Theorem 4's
  * h(i, j), so a single join suffices (Section 5.1). Aggregate-in-FROM
  * queries use the Query 7 `GROUP BY ..., sid` pushdown (Section 5.2).
  * Without error columns the query is the single-level HT aggregate: no
  * `vsid` and one aggregation.
  *
  * This is the only place partial answers are combined. A query's parts are
  * its sampled blocks, its exact blocks (`FlatQuery.sqlExact` on the base
  * tables: blocks the planner left there and the min/max items of Section
  * 2.2) and, for an aggregate-in-FROM query with errors, its point and error
  * branches. Every part but the error branch applies the query's HAVING, and
  * every part emits the GROUP BY keys as `g_i`:
  *
  *    SELECT t0.g_0 AS <key item>, <items>, <items>_err
  *    FROM (part 0) t0 JOIN (part 1) t1 ON t0.g_0 <=> t1.g_0 AND ...
  *    ORDER BY ... LIMIT ...
  *
  * (a CROSS JOIN without GROUP BY). A query with one part is that part: its
  * select items in the query's order, each followed by its error column.
  */
object Rewriter {

  /** Suffix for error columns in the rewritten output. */
  val ErrSuffix = "_err"

  final case class Rewritten(sql: String,
                             /** output column -> error column, per aggregate item */
                             errColumns: Map[String, String],
                             /** number of subsamples used (1 without error columns) */
                             b: Int)

  private final case class Unsupported(reason: String) extends RuntimeException(reason)
  private def bail(reason: String): Nothing = throw Unsupported(reason)

  /** Some aggregate items of a query and the tables they are computed on.
    * A block that reads no sample is computed exactly on the base tables.
    */
  final case class Block(items: Seq[SelectItem], choices: Map[String, TableChoice])

  /** Rewrite `q` onto the samples of `choices`; with `errors` off, emit the
    * single-level form without error columns.
    */
  def rewrite(q: FlatQuery, choices: Map[String, TableChoice], seed: Long,
              errors: Boolean = true): Either[String, Rewritten] =
    rewritePlan(q, Seq(Block(q.aggItems, choices)), seed, errors)

  /** Rewrite `q`, whose aggregate items the `blocks` share out, as one
    * statement joining the blocks' parts; block i draws its subsample ids
    * from `seed + i`.
    */
  def rewritePlan(q: FlatQuery, blocks: Seq[Block], seed: Long,
                  errors: Boolean): Either[String, Rewritten] =
    try {
      val keys = q.groupBy.zip(groupAliases(q)).map { case (g, a) => SelectItem(g, a) }
      val parts = blocks.zipWithIndex.flatMap { case (blk, i) =>
        partsOf(q.copy(select = keys ++ blk.items, orderBy = Seq.empty, limit = None),
          blk.choices, seed + i, errors)
      }
      // a single part answers q alone: render it with q's own select list,
      // ORDER BY and LIMIT
      scala.Right(
        if (parts.size == 1) partsOf(q, blocks.head.choices, seed, errors).head
        else joinParts(q, parts))
    } catch { case Unsupported(r) => scala.Left(r) }

  /** The parts computing `q` on `choices`: one for an exact or flat query;
    * a point and an error part for an aggregate-in-FROM query with errors.
    */
  private def partsOf(q: FlatQuery, choices: Map[String, TableChoice], seed: Long,
                      errors: Boolean): Seq[Rewritten] = {
    val sampleRows = choices.values.flatMap(_.sample).map(_.sampleRows)
    if (sampleRows.isEmpty) return Seq(Rewritten(q.sqlExact, Map.empty, 1))
    // Shared number of subsamples across all sampled sources (perfect
    // square so Theorem 4's h(i,j) grid partitions exactly).
    val b = if (errors) Some(numSubsamples(sampleRows.min)) else None
    q.from match {
      case Seq(DerivedTable(inner, alias)) => rewriteNested(q, inner, alias, choices, seed, b)
      case srcs if srcs.forall(_.isInstanceOf[BaseTable]) =>
        Seq(rewriteFlat(q, choices, seed, b))
      case _ => bail("unsupported source mix (derived table joined with others)")
    }
  }

  /** One statement over `parts`, each emitting `g_i` for every GROUP BY key
    * of `q`: joined null-safely on those keys (cross-joined without GROUP
    * BY), then the select items, their error columns, ORDER BY and LIMIT.
    */
  private def joinParts(q: FlatQuery, parts: Seq[Rewritten]): Rewritten = {
    val keys = groupAliases(q)
    val from = parts.zipWithIndex.map { case (p, i) =>
      val t = s"(${p.sql}) t$i"
      if (i == 0) t
      else if (keys.isEmpty) s" CROSS JOIN $t"
      else s" JOIN $t ON ${keys.map(g => s"t0.$g <=> t$i.$g").mkString(" AND ")}"
    }.mkString
    val errs = parts.flatMap(_.errColumns).toMap
    val cols = q.select.map { item =>
      if (item.expr.aggs.isEmpty) s"t0.g_${groupIndex(q, item)} AS ${item.alias}"
      else item.alias
    } ++ q.aggItems.flatMap(i => errs.get(i.alias))
    Rewritten(s"SELECT ${cols.mkString(", ")} FROM $from${orderLimitSql(q)}", errs,
      parts.map(_.b).max)
  }

  // --------------------------------------------------------------- sources --

  /** Subsample-id column that `renderSources` adds to every sample. */
  val SidCol = "vsid"

  /** A block's sources rendered as SQL.
    * @param sid         the joined row's subsample id, when rendered with b
    * @param distinctTau domain fraction of the block's hashed sample
    */
  final case class Sources(from: String, prob: String, sid: Option[String],
                           distinctTau: Double)

  /** The FROM clause, sampling probability and subsample id of the base
    * tables of `q` under `choices`. With `b`, every sample carries a `vsid`
    * in [1, b]: a count-distinct block over a hashed sample partitions by
    * the hash of the distinct column (disjoint subdomains); otherwise ids
    * are uniform at random, fresh per query (footnote 7). Without `b`,
    * samples are read as they are.
    */
  def renderSources(q: FlatQuery, choices: Map[String, TableChoice],
                    b: Option[Int], seed: Long): Sources = {
    val sources = q.from.collect { case t: BaseTable => t }
    val sampled = sources.filter(s => choices(s.alias).sample.isDefined)
    val distinctCols = q.allAggs.filter(_.func == AggFuncType.CountDistinct).flatMap(_.argSql)
    if (distinctCols.distinct.size > 1) bail("multiple count-distinct columns in one block")

    val rendered = sources.map { s =>
      (choices(s.alias), b) match {
        case (UseBase(name, _), _)  => s"$name AS ${s.alias}"
        case (UseSample(info), None) => s"${info.sampleTable} AS ${s.alias}"
        case (UseSample(info), Some(b)) =>
          val sid = distinctCols.headOption match {
            case Some(col) if info.sampleType == SampleType.Hashed =>
              s"(1 + pmod(hash(${col.split('.').last}), $b))"
            case _ => sidExpr(b, seed + s.alias.hashCode)
          }
          s"(SELECT *, $sid AS $SidCol FROM ${info.sampleTable}) AS ${s.alias}"
      }
    }

    // Hashed (universe) samples joined on their hash columns share inclusion
    // events: within such a correlation class the joint probability is
    // least(tau), not the product (Section 5.1 / Appendix E.1). Classes are
    // the connected components of hashed sources under join conditions that
    // touch their hash columns. Everything else is independent -> product.
    val hashedOf: Map[String, SampleInfo] = sampled.flatMap { s =>
      choices(s.alias).sample
        .filter(_.sampleType == SampleType.Hashed).map(s.alias -> _)
    }.toMap
    val otherSampled = sampled.map(_.alias).filterNot(hashedOf.contains)

    val classes: Seq[Seq[String]] = {
      val parent = scala.collection.mutable.Map(hashedOf.keys.map(a => a -> a).toSeq: _*)
      def find(a: String): String =
        if (parent(a) == a) a else { val r = find(parent(a)); parent(a) = r; r }
      for (c <- q.joinConds) {
        (hashedOf.get(c.leftAlias), hashedOf.get(c.rightAlias)) match {
          case (Some(li), Some(ri))
            if li.columns.exists(_.equalsIgnoreCase(c.leftCol)) &&
               ri.columns.exists(_.equalsIgnoreCase(c.rightCol)) =>
            parent(find(c.leftAlias)) = find(c.rightAlias)
          case _ =>
        }
      }
      hashedOf.keys.toSeq.groupBy(find).values.toSeq
    }
    val probParts = classes.map { cls =>
      if (cls.size == 1) s"${cls.head}.${SampleCatalog.ProbCol}"
      else s"least(${cls.map(a => s"$a.${SampleCatalog.ProbCol}").mkString(", ")})"
    } ++ otherSampled.map(a => s"$a.${SampleCatalog.ProbCol}")

    val sid = b.map(b => sampled.map(s => s"${s.alias}.$SidCol")
      .reduceLeft((acc, next) => hExpr(acc, next, b)))
    val distinctTau = choices.values.collectFirst {
      case UseSample(i) if i.sampleType == SampleType.Hashed => i.tau
    }.getOrElse(1.0)
    Sources(joinTree(rendered, sources.map(_.alias), q.joinConds),
      probParts.mkString(" * "), sid, distinctTau)
  }

  /** Render `a JOIN b ON ... JOIN c ON ...`, attaching each equi-join
    * condition once both of its sides are in the tree.
    */
  private def joinTree(rendered: Seq[String], aliases: Seq[String],
                       conds: Seq[JoinCond]): String = {
    if (rendered.size == 1) return rendered.head
    var inTree   = Set(aliases.head)
    var sql      = rendered.head
    var pending  = conds
    for (i <- 1 until rendered.size) {
      val a = aliases(i)
      inTree += a
      val (ready, rest) = pending.partition(c =>
        inTree.contains(c.leftAlias) && inTree.contains(c.rightAlias))
      pending = rest
      val on = if (ready.isEmpty) "(1 = 1)" else ready.map(_.sql).mkString(" AND ")
      sql = s"$sql JOIN ${rendered(i)} ON $on"
    }
    if (pending.nonEmpty) bail(s"join condition not attachable: ${pending.head.sql}")
    sql
  }

  // ------------------------------------------------------------------ flat --

  private def whereSql(q: FlatQuery): String =
    q.where.map(w => s" WHERE ${w.sqlText}").getOrElse("")

  private def groupAliases(q: FlatQuery): Seq[String] = q.groupBy.indices.map(i => s"g_$i")

  /** Position in GROUP BY of a plain select item. */
  private def groupIndex(q: FlatQuery, item: SelectItem): Int = {
    val gi = q.groupBy.indexWhere(_.sqlText == item.expr.asInstanceOf[Raw].sqlText)
    if (gi < 0) bail(s"non-grouped plain select item: ${item.alias}")
    gi
  }

  /** L1 + L2: one row per (group, vsid) with the group columns as `g_i`,
    * `vsid`, the subsample size and every estimator's statistics.
    */
  private def variationalTable(q: FlatQuery, src: Sources,
                               est: Iterable[Estimator]): String = {
    val sid = src.sid.get
    val cols = q.groupBy.zip(groupAliases(q)).map { case (g, a) => s"${g.sqlText} AS $a" } ++
      Seq(s"$sid AS $SidCol", s"count(*) AS $SizeCol") ++ est.flatMap(_.columns(src.prob))
    s"SELECT ${cols.mkString(", ")} FROM ${src.from}${whereSql(q)} " +
      s"GROUP BY ${(q.groupBy.map(_.sqlText) :+ sid).mkString(", ")}"
  }

  /** The output level of a flat query over `from`, grouped by `groups`
    * (one per GROUP BY expression): plain items, each aggregate item as
    * `estimate` of its calls and, given `perSubsample`, its error column;
    * then HAVING, ORDER BY and LIMIT.
    */
  private def outputLevel(q: FlatQuery, from: String, groups: Seq[String],
                          estimate: AggCall => String,
                          perSubsample: Option[AggCall => String]): Rewritten = {
    val outCols = q.select.flatMap { item =>
      if (item.expr.aggs.isEmpty) Seq(s"${groups(groupIndex(q, item))} AS ${item.alias}")
      else s"${item.expr.render(estimate)} AS ${item.alias}" +: perSubsample.toSeq.map(e =>
        s"(stddev_samp(${item.expr.render(e)}) * ${errScaleSql(SizeCol)}) " +
          s"AS ${item.alias}$ErrSuffix")
    }
    val havingSql = q.having.map(h => s" HAVING ${h.render(estimate)}").getOrElse("")
    val groupBySql = if (groups.isEmpty) "" else s" GROUP BY ${groups.mkString(", ")}"
    val sql = s"SELECT ${outCols.mkString(", ")} FROM $from" +
      s"$groupBySql$havingSql${orderLimitSql(q)}"
    Rewritten(sql, if (perSubsample.isEmpty) Map.empty else errColumns(q), 1)
  }

  /** Output column -> error column, for each aggregate item of `q`. */
  private def errColumns(q: FlatQuery): Map[String, String] =
    q.aggItems.map(i => i.alias -> s"${i.alias}$ErrSuffix").toMap

  private def orderLimitSql(q: FlatQuery): String =
    (if (q.orderBy.isEmpty) "" else s" ORDER BY ${q.orderBy.map(_.sql).mkString(", ")}") +
      q.limit.map(n => s" LIMIT $n").getOrElse("")

  private def rewriteFlat(q: FlatQuery, choices: Map[String, TableChoice],
                          seed: Long, b: Option[Int]): Rewritten = {
    if (q.hasExtreme) bail("extreme statistics must be decomposed before rewriting")
    val src = renderSources(q, choices, b, seed)
    estimates(q, src, Estimator.forQuery(q, src.distinctTau), b, errors = true)
  }

  /** The estimates of flat query `q`: over its variational table given `b`,
    * with error columns if `errors`; else single-level over its sources.
    */
  private def estimates(q: FlatQuery, src: Sources, est: ListMap[AggCall, Estimator],
                        b: Option[Int], errors: Boolean): Rewritten = b match {
    case Some(b) =>
      outputLevel(q, s"(${variationalTable(q, src, est.values)}) vt3", groupAliases(q),
        est(_).point, Option.when(errors)(est(_).perSubsample(b))).copy(b = b)
    case None =>
      outputLevel(q, s"${src.from}${whereSql(q)}", q.groupBy.map(_.sqlText),
        est(_).single(src.prob), None)
  }

  // ---------------------------------------------------------------- nested --

  /** Aggregate-in-FROM queries (Section 5.2). The inner query's variational
    * table gets `vsid` in its GROUP BY (Query 7). The outer aggregates run
    * once over the inner point estimates (the point part, which applies the
    * outer HAVING) and, given `b`, once per vsid over the inner per-vsid
    * estimates (the error part); both parts read the same inner L2.
    */
  private def rewriteNested(outer: FlatQuery, inner: FlatQuery, alias: String,
                            choices: Map[String, TableChoice], seed: Long,
                            b: Option[Int]): Seq[Rewritten] = {
    if (outer.hasExtreme || inner.hasExtreme) bail("extreme statistics in nested query")
    if (inner.groupBy.isEmpty) bail("nested rewrite requires a grouped inner query")

    val src = renderSources(inner, choices, b, seed)
    val est = Estimator.forQuery(inner, src.distinctTau)
    val innerPoint = estimates(inner, src, est, b, errors = false).sql

    val outerGroups = outer.groupBy.map(_.sqlText)
    val groupBySql =
      if (outerGroups.isEmpty) "" else s" GROUP BY ${outerGroups.mkString(", ")}"
    val havingSql = outer.having.map(h => s" HAVING ${h.sqlExact}").getOrElse("")
    // point part: exact outer aggregation over the inner point estimates
    val point = Rewritten(
      s"SELECT ${outer.select.map(i => s"${i.expr.sqlExact} AS ${i.alias}").mkString(", ")} " +
        s"FROM ($innerPoint) $alias${whereSql(outer)}$groupBySql$havingSql" +
        orderLimitSql(outer), Map.empty, 1)

    b match {
      case None => Seq(point)
      case Some(b) =>
        // error part: outer aggregation per vsid over the inner per-vsid
        // estimates, then stddev across vsids scaled by 1/sqrt(b).
        val innerPerSid = inner.select.map { item =>
          if (item.expr.aggs.isEmpty) s"g_${groupIndex(inner, item)} AS ${item.alias}"
          else s"${item.expr.render(est(_).perSubsample(b))} AS ${item.alias}"
        } :+ SidCol
        val outerAliases = groupAliases(outer)
        val aggItems = outer.aggItems
        val perSidItems = outerGroups.zip(outerAliases).map { case (g, a) => s"$g AS $a" } ++
          Seq(SidCol) ++ aggItems.zipWithIndex.map { case (item, i) =>
            s"${item.expr.sqlExact} AS e_$i"
          }
        val eInner = s"SELECT ${perSidItems.mkString(", ")} " +
          s"FROM (SELECT ${innerPerSid.mkString(", ")} " +
          s"FROM (${variationalTable(inner, src, est.values)}) vt3) $alias${whereSql(outer)} " +
          s"GROUP BY ${(outerGroups :+ SidCol).mkString(", ")}"
        val errAgg = aggItems.zipWithIndex.map { case (item, i) =>
          s"(stddev_samp(e_$i) / sqrt(count(*))) AS ${item.alias}$ErrSuffix"
        }
        val eGroupBy =
          if (outerAliases.isEmpty) "" else s" GROUP BY ${outerAliases.mkString(", ")}"
        Seq(point, Rewritten(s"SELECT ${(outerAliases ++ errAgg).mkString(", ")} " +
          s"FROM ($eInner) ve$eGroupBy", errColumns(outer), b))
    }
  }
}
