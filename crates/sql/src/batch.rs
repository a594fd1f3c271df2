//! Tier-1 lowering: generated counting statements executed on the
//! counting kernels instead of the tuple interpreter.
//!
//! The tuple interpreter in [`crate::executor`] clones and compares
//! [`Value`]s row by row; fine as a semantic oracle, hopeless as the
//! engine behind thousands of generated `COUNT(DISTINCT …)` probes.
//! The probe shapes the pipeline generates *are* the paper's `‖·‖`
//! primitives, so they lower straight onto a [`CountBackend`]'s
//! `count_distinct` / `join_stats` kernels without enumerating a
//! single row:
//!
//! * `SELECT COUNT(*) FROM r x` — the table length;
//! * `SELECT COUNT(DISTINCT x.a…) FROM r x` — `‖r[A]‖`;
//! * `SELECT COUNT(DISTINCT x.a…) FROM r x, s y WHERE x.a… = y.b…`, a
//!   conjunctive equi-join whose counted columns are exactly one
//!   side's join columns — `‖r[A] ⋈ s[B]‖`, served by the
//!   intersection kernel.
//!
//! Every other query — filters, projections, grouping, set
//! operations, other aggregates — is left to the tuple interpreter.
//! Results are identical either way; the unit tests below pin each
//! lowered shape against the interpreter.

use crate::ast::*;
use crate::executor::ResultSet;
use dbre_relational::attr::AttrId;
use dbre_relational::backend::CountBackend;
use dbre_relational::counting::EquiJoin;
use dbre_relational::database::Database;
use dbre_relational::deps::IndSide;
use dbre_relational::schema::RelId;
use dbre_relational::value::Value;

/// Executes `query` through its tier-1 lowering, when it has one.
///
/// `Some(_)` is a complete result, identical to the tuple path's;
/// `None` means the query is not one of the lowered count shapes and
/// the caller should run [`crate::execute_query`] instead — which also
/// reproduces the exact error text for malformed queries, because the
/// lowering gives up (rather than erroring) on anything it cannot
/// resolve. `backend` serves the counts.
pub fn execute_query_batch(
    db: &Database,
    backend: &dyn CountBackend,
    query: &Query,
) -> Option<ResultSet> {
    if query.compound.is_some() {
        return None;
    }
    let plan = lower(db, &query.body)?;
    let n = lower_set_algebraic(db, backend, &plan)?;
    Some(ResultSet {
        columns: vec![plan.column],
        rows: vec![vec![Value::Int(n as i64)]],
    })
}

/// One FROM table in the lowered plan.
struct TableCtx {
    rel: RelId,
    name: String,
}

/// What the query counts.
enum SinkShape {
    CountStar,
    CountDistinct(Vec<(usize, AttrId)>),
}

/// A single-count SELECT over one table or a two-table equi-join.
struct Plan {
    tables: Vec<TableCtx>,
    /// Conjunctive cross-table equalities `(attr on table 0, attr on
    /// table 1)`, in conjunct order; non-empty iff two tables.
    join_pairs: Vec<(AttrId, AttrId)>,
    sink: SinkShape,
    /// The output column name.
    column: String,
}

/// Statically resolves a column against the FROM tables, mirroring the
/// tuple executor's rules. `None` (unknown or ambiguous) aborts the
/// lowering so the tuple path reports the error.
fn resolve_col(db: &Database, tables: &[TableCtx], c: &ColumnRef) -> Option<(usize, AttrId)> {
    let mut found = None;
    for (i, t) in tables.iter().enumerate() {
        if let Some(q) = &c.qualifier {
            if q != &t.name {
                continue;
            }
        }
        if let Some(attr) = db.schema.relation(t.rel).attr_id(&c.name) {
            if found.is_some() {
                return None;
            }
            found = Some((i, attr));
        } else if c.qualifier.is_some() {
            return None;
        }
    }
    found
}

/// Lowers one SELECT into a [`Plan`], or `None` when it is not a
/// single `COUNT` over one table or over a conjunctive two-table
/// equi-join.
fn lower(db: &Database, s: &Select) -> Option<Plan> {
    if !s.group_by.is_empty() || s.having.is_some() || !s.order_by.is_empty() {
        return None;
    }
    if s.from.is_empty() || s.from.len() > 2 {
        return None;
    }

    let mut tables: Vec<TableCtx> = Vec::with_capacity(s.from.len());
    for tr in &s.from {
        let rel = db.rel(&tr.table).ok()?;
        let name = tr.binding().to_string();
        if tables.iter().any(|t| t.name == name) {
            return None; // duplicate binding — tuple path reports it
        }
        tables.push(TableCtx { rel, name });
    }

    let [SelectItem::Expr { expr, alias }] = s.items.as_slice() else {
        return None;
    };
    let (sink, default_name) = match expr {
        Expr::CountStar => (SinkShape::CountStar, "count(*)"),
        Expr::CountDistinct(cols) => {
            let cols = cols
                .iter()
                .map(|c| resolve_col(db, &tables, c))
                .collect::<Option<Vec<_>>>()?;
            (SinkShape::CountDistinct(cols), "count(distinct)")
        }
        _ => return None,
    };
    let column = alias.clone().unwrap_or_else(|| default_name.to_string());

    // Every conjunct must be a cross-table column equality, which
    // becomes a join pair; any filter takes the tuple path.
    let mut join_pairs = Vec::new();
    for p in s.join_conds.iter().chain(s.where_clause.iter()) {
        for c in p.conjuncts() {
            let (a, b) = c.as_column_equality()?;
            let (ta, aa) = resolve_col(db, &tables, a)?;
            let (tb, ab) = resolve_col(db, &tables, b)?;
            if ta == tb {
                return None;
            }
            join_pairs.push(if ta == 0 { (aa, ab) } else { (ab, aa) });
        }
    }
    // Two tables with no equality to join on: a cross product.
    if tables.len() == 2 && join_pairs.is_empty() {
        return None;
    }

    Some(Plan {
        tables,
        join_pairs,
        sink,
        column,
    })
}

/// Serves a lowered plan from the backend's counting kernels — no row
/// enumeration at all. `None` for the join shapes that are not a
/// `‖·‖` primitive (`COUNT(*)` over a join, or counted columns other
/// than one side's join columns).
fn lower_set_algebraic(db: &Database, backend: &dyn CountBackend, plan: &Plan) -> Option<usize> {
    match (&plan.sink, plan.tables.as_slice()) {
        // SELECT COUNT(*) FROM r — the table length.
        (SinkShape::CountStar, [t]) => Some(db.table(t.rel).len()),
        // SELECT COUNT(DISTINCT x.a…) FROM r x — `‖r[A]‖`.
        (SinkShape::CountDistinct(cols), [t]) => {
            let attrs: Vec<AttrId> = cols.iter().map(|&(_, a)| a).collect();
            Some(backend.count_distinct(db, t.rel, &attrs))
        }
        // SELECT COUNT(DISTINCT x.a…) FROM r x, s y WHERE x.a… = y.b…
        // with the counted columns exactly one side's join columns —
        // `‖r[A] ⋈ s[B]‖`, served by the intersection kernel.
        (SinkShape::CountDistinct(cols), [_, _]) => {
            let side = cols.first()?.0;
            if !cols.iter().all(|&(t, _)| t == side) {
                return None;
            }
            let counted: Vec<AttrId> = cols.iter().map(|&(_, a)| a).collect();
            let pair_side = |t: usize| -> Vec<AttrId> {
                plan.join_pairs
                    .iter()
                    .map(|&(a, b)| if t == 0 { a } else { b })
                    .collect()
            };
            if counted != pair_side(side) {
                return None;
            }
            let join = EquiJoin::try_new(
                IndSide::new(plan.tables[side].rel, counted),
                IndSide::new(plan.tables[1 - side].rel, pair_side(1 - side)),
            )
            .ok()?;
            Some(backend.join_stats(db, &join).n_join)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::executor::run_sql;
    use crate::parser::parse_query;
    use dbre_relational::backend::ReferenceBackend;

    fn db() -> Database {
        let mut cat = Catalog::new();
        cat.load_script(
            "CREATE TABLE A (x INT, y INT, s CHAR(8));
             CREATE TABLE B (u INT, v INT);
             INSERT INTO A VALUES (1, 1, 'a'), (1, 2, 'b'), (2, 1, 'a'),
                                  (1, 1, 'c'), (NULL, 3, 'a'), (4, NULL, NULL);
             INSERT INTO B VALUES (1, 1), (2, 1), (3, 3), (NULL, 1), (1, 9);",
        )
        .unwrap();
        cat.into_database()
    }

    fn lowered(db: &Database, sql: &str) -> Option<ResultSet> {
        execute_query_batch(db, &ReferenceBackend, &parse_query(sql).unwrap())
    }

    /// Asserts that `sql` lowers and that the lowering answers exactly
    /// like the tuple interpreter.
    fn check(db: &Database, sql: &str) {
        let out = lowered(db, sql).unwrap_or_else(|| panic!("not lowered: {sql}"));
        assert_eq!(
            out,
            run_sql(db, sql).unwrap(),
            "lowered != tuple for: {sql}"
        );
    }

    #[test]
    fn tier_one_lowers_counts_without_enumeration() {
        let db = db();
        check(&db, "SELECT COUNT(DISTINCT x.x) FROM A x");
        check(&db, "SELECT COUNT(DISTINCT x.x, x.y) FROM A x");
        check(&db, "SELECT COUNT(*) FROM A x");
        check(
            &db,
            "SELECT COUNT(DISTINCT x.x) FROM A x, B y WHERE x.x = y.u",
        );
        // Either side may be counted; an alias names the column.
        check(
            &db,
            "SELECT COUNT(DISTINCT y.u) AS n FROM A x, B y WHERE x.x = y.u",
        );
        check(
            &db,
            "SELECT COUNT(DISTINCT x.x) FROM A x JOIN B y ON y.u = x.x",
        );
        // Composite join pair, counted columns = join columns.
        check(
            &db,
            "SELECT COUNT(DISTINCT x.x, x.y) FROM A x, B y WHERE x.x = y.u AND x.y = y.v",
        );
    }

    #[test]
    fn other_shapes_are_left_to_the_tuple_interpreter() {
        let db = db();
        for sql in [
            "SELECT * FROM A x",                                        // wildcard
            "SELECT x.x FROM A x",                                      // projection
            "SELECT DISTINCT x.x, x.s FROM A x",                        // projection
            "SELECT MIN(x.x) FROM A x",                                 // non-count agg
            "SELECT COUNT(*), COUNT(DISTINCT x.x) FROM A x",            // two items
            "SELECT x.x FROM A x ORDER BY x.x",                         // ordering
            "SELECT x.x, COUNT(*) FROM A x GROUP BY x.x",               // grouping
            "SELECT COUNT(*) FROM A x WHERE x.x = 1",                   // filter
            "SELECT COUNT(*) FROM A x WHERE x.x = x.y",                 // same-table equality
            "SELECT COUNT(*) FROM A x, B y",                            // cross product
            "SELECT COUNT(*) FROM A x, B y WHERE x.x = y.u",            // join COUNT(*)
            "SELECT COUNT(DISTINCT x.y) FROM A x, B y WHERE x.x = y.u", // counted ≠ join cols
            "SELECT COUNT(DISTINCT x.x) FROM A x, B y WHERE x.x = y.u AND y.v = 1", // filter
            "SELECT x.x FROM A x INTERSECT SELECT y.u FROM B y",        // set operation
            "SELECT COUNT(DISTINCT ghost.z) FROM A x",                  // unresolvable
            "SELECT COUNT(*) FROM A x, A x",                            // duplicate binding
        ] {
            assert!(lowered(&db, sql).is_none(), "should not lower: {sql}");
        }
    }
}
