//! The `‖·‖` counting primitives expressed as real SQL, and the
//! [`SqlBackend`] that serves them through the counting seam.
//!
//! §2 of the paper defines `‖r[X]‖` as
//! `SELECT COUNT (DISTINCT X) FROM R` — "this function can be computed
//! in any SQL-like language". The pipeline normally uses the columnar
//! backends of `dbre-relational` for speed; this module generates and
//! executes the *actual SQL* through this crate's executor, so the
//! interchangeability claim is a tested property rather than a remark
//! (the three-way backend differential suite pins it).
//!
//! [`SqlBackend`] implements [`CountBackend`] — it lives
//! here rather than in `dbre-relational` to respect the dependency
//! direction (the relational substrate knows nothing about SQL). The
//! cardinality probes (`count_distinct`, `join_stats`, and through
//! them `ind_holds`) run generated SQL; the probes the paper never
//! claims SQL for — row-index LHS groups, value projections, stripped
//! partitions — are computed client-side by the dictionary kernels of
//! the backend's own [`EncodedBackend`], as a DBRE tool sitting next
//! to a legacy DBMS would post-process fetched rows.

use dbre_relational::attr::AttrId;
use dbre_relational::backend::{BackendExecStats, CountBackend, EncodedBackend, ReferenceBackend};
use dbre_relational::counting::{EquiJoin, JoinStats};
use dbre_relational::database::Database;
use dbre_relational::deps::IndSide;
use dbre_relational::partitions::StrippedPartition;
use dbre_relational::schema::RelId;
use dbre_relational::table::ProjKey;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::batch::execute_query_batch;
use crate::executor::{execute_query, ResultSet};
use crate::{run_sql, SqlResult};

/// Renders an identifier for the generated SQL. Hyphenated legacy
/// names (`project-name`) must be double-quoted: left bare in an
/// expression they read as subtraction (`project - name`), silently
/// changing the counted value wherever both operands happen to resolve.
/// Anything not lexable as a plain identifier is double-quoted too,
/// with embedded double quotes escaped by doubling (SQL-92) so a name
/// containing `"` round-trips through the lexer instead of producing
/// an unparseable statement.
pub fn ident(name: &str) -> String {
    let plain = name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if plain {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

fn side_cols(db: &Database, side: &IndSide, alias: &str) -> Vec<String> {
    let rel = db.schema.relation(side.rel);
    side.attrs
        .iter()
        .map(|a| format!("{alias}.{}", ident(rel.attr_name(*a))))
        .collect()
}

/// The SQL text for `‖r[X]‖` of one side.
pub fn count_side_sql(db: &Database, side: &IndSide) -> String {
    let rel = db.schema.relation(side.rel);
    format!(
        "SELECT COUNT(DISTINCT {}) FROM {} x",
        side_cols(db, side, "x").join(", "),
        ident(&rel.name)
    )
}

/// The SQL text for `‖r_k[A_k] ⋈ r_l[A_l]‖`.
pub fn count_join_sql(db: &Database, join: &EquiJoin) -> String {
    let lrel = db.schema.relation(join.left.rel);
    let rrel = db.schema.relation(join.right.rel);
    let lcols = side_cols(db, &join.left, "x");
    let rcols = side_cols(db, &join.right, "y");
    let conds: Vec<String> = lcols
        .iter()
        .zip(&rcols)
        .map(|(l, r)| format!("{l} = {r}"))
        .collect();
    format!(
        "SELECT COUNT(DISTINCT {}) FROM {} x, {} y WHERE {}",
        lcols.join(", "),
        ident(&lrel.name),
        ident(&rrel.name),
        conds.join(" AND ")
    )
}

/// Computes the three IND-Discovery cardinalities by *executing SQL*
/// against the database — the fidelity path, also available without
/// going through a [`SqlBackend`].
pub fn join_stats_via_sql(db: &Database, join: &EquiJoin) -> SqlResult<JoinStats> {
    let n_left = run_sql(db, &count_side_sql(db, &join.left))?.count()?;
    let n_right = run_sql(db, &count_side_sql(db, &join.right))?.count()?;
    let n_join = run_sql(db, &count_join_sql(db, join))?.count()?;
    Ok(JoinStats {
        n_left,
        n_right,
        n_join,
    })
}

/// The generated-SQL counting backend: every `‖·‖` probe is a real
/// `SELECT COUNT(DISTINCT …)` through this crate's executor, the way a
/// DBRE tool would interrogate a live legacy DBMS.
///
/// Every statement is parsed, then executed through its tier-1
/// lowering ([`crate::batch::execute_query_batch`]) onto an owned
/// [`EncodedBackend`] — the generated probe shapes are exactly the
/// lowered ones, so the distinct tuples folded for one probe serve
/// every later probe touching the same columns. A statement without a
/// lowering runs on the tuple interpreter;
/// [`SqlBackend::exec_stats`] reports how often each path served. The
/// same backend serves the probes SQL cannot express: LHS groups,
/// projections and unary partitions.
///
/// The backend trait is infallible by design (counting cannot fail on
/// a well-formed schema); if a generated statement nevertheless fails
/// to execute, the probe falls back to the reference computation and
/// the failure is counted in [`SqlBackend::failures`] — the
/// differential tests assert that counter stays at zero, so a quoting
/// or generation bug cannot hide behind the fallback.
#[derive(Default)]
pub struct SqlBackend {
    reference: ReferenceBackend,
    /// The counting kernels behind the lowering and the client-side
    /// probes.
    encoded: EncodedBackend,
    failures: AtomicU64,
    batch_ops: AtomicU64,
    tuple_ops: AtomicU64,
}

// Compile-time proof the SQL backend can be shared by concurrent
// sessions like the in-crate backends (which `dbre-relational`
// asserts the same way): nothing but atomics and the already-`Sync`
// reference/encoded backends inside.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SqlBackend>();
};

impl std::fmt::Debug for SqlBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqlBackend")
            .field("failures", &self.failures)
            .field("batch_ops", &self.batch_ops)
            .field("tuple_ops", &self.tuple_ops)
            .finish_non_exhaustive()
    }
}

impl SqlBackend {
    /// A fresh SQL backend.
    pub fn new() -> Self {
        SqlBackend::default()
    }

    /// How many generated statements failed to execute and were served
    /// by the reference fallback instead. Zero on a healthy backend.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Executes one generated statement: its tier-1 lowering when it
    /// has one, the tuple interpreter otherwise. Each path's use is
    /// counted.
    fn run_probe(&self, db: &Database, sql: &str) -> SqlResult<ResultSet> {
        let query = crate::parser::parse_query(sql)?;
        if let Some(rs) = execute_query_batch(db, &self.encoded, &query) {
            self.batch_ops.fetch_add(1, Ordering::Relaxed);
            return Ok(rs);
        }
        self.tuple_ops.fetch_add(1, Ordering::Relaxed);
        execute_query(db, &query)
    }

    /// `‖rel[attrs]‖` via SQL, falling back to the reference scan (and
    /// counting the failure) if the statement does not execute.
    fn count_side(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        let side = IndSide::new(rel, attrs.to_vec());
        match self
            .run_probe(db, &count_side_sql(db, &side))
            .and_then(|rs| rs.count())
        {
            Ok(n) => n,
            Err(_) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.reference.count_distinct(db, rel, attrs)
            }
        }
    }

    /// The three IND-Discovery cardinalities via generated SQL.
    fn join_stats_probe(&self, db: &Database, join: &EquiJoin) -> SqlResult<JoinStats> {
        let n_left = self
            .run_probe(db, &count_side_sql(db, &join.left))?
            .count()?;
        let n_right = self
            .run_probe(db, &count_side_sql(db, &join.right))?
            .count()?;
        let n_join = self.run_probe(db, &count_join_sql(db, join))?.count()?;
        Ok(JoinStats {
            n_left,
            n_right,
            n_join,
        })
    }
}

impl CountBackend for SqlBackend {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        if attrs.is_empty() {
            // `COUNT(DISTINCT)` needs at least one column; the empty
            // projection is a degenerate probe only the test harness
            // produces. Served by the reference semantics, not counted
            // as a failure.
            return self.reference.count_distinct(db, rel, attrs);
        }
        self.count_side(db, rel, attrs)
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        match self.join_stats_probe(db, join) {
            Ok(stats) => stats,
            Err(_) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.reference.join_stats(db, join)
            }
        }
    }

    // Row indices and value sets are not expressible in the legacy SQL
    // subset (and the paper only claims SQL for the `‖·‖` counts, §2):
    // these three are computed client-side over the dictionary codes,
    // like a tool post-processing fetched rows.

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        self.encoded.lhs_groups(db, rel, attrs)
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        self.encoded.projection(db, rel, attrs)
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        self.encoded.partition1(db, rel, attr)
    }

    fn exec_stats(&self) -> BackendExecStats {
        BackendExecStats {
            fallback_failures: self.failures.load(Ordering::Relaxed),
            batch_ops: self.batch_ops.load(Ordering::Relaxed),
            tuple_fallback_ops: self.tuple_ops.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_names_get_quoted() {
        assert_eq!(ident("weird name"), "\"weird name\"");
        assert_eq!(ident("3col"), "\"3col\"");
        assert_eq!(ident("plain_name-2"), "\"plain_name-2\"");
        assert_eq!(ident("plain_name2"), "plain_name2");
        // Embedded quotes are escaped by doubling, not passed through.
        assert_eq!(ident("wei\"rd"), "\"wei\"\"rd\"");
        assert_eq!(ident("\""), "\"\"\"\"");
    }

    #[test]
    fn sql_backend_composite_join_round_trip() {
        use crate::Catalog;
        let mut cat = Catalog::new();
        cat.load_script(
            "CREATE TABLE A (x INT, y INT); CREATE TABLE B (u INT, v INT);
             INSERT INTO A VALUES (1,1), (1,2), (2,1), (1,1);
             INSERT INTO B VALUES (1,1), (2,1), (3,3);",
        )
        .unwrap();
        let db = cat.into_database();
        let (a, a_ids) = db.resolve("A", &["x", "y"]).unwrap();
        let (b, b_ids) = db.resolve("B", &["u", "v"]).unwrap();
        let join = EquiJoin::try_new(IndSide::new(a, a_ids), IndSide::new(b, b_ids)).unwrap();
        let backend = SqlBackend::new();
        let stats = backend.join_stats(&db, &join);
        assert_eq!(stats, ReferenceBackend.join_stats(&db, &join));
        assert_eq!(stats, join_stats_via_sql(&db, &join).unwrap());
        assert_eq!(stats.n_join, 2); // pairs (1,1) and (2,1)
        assert_eq!(backend.failures(), 0, "no statement fell back");
    }

    #[test]
    fn sql_backend_quoted_identifiers_round_trip() {
        use crate::Catalog;
        let mut cat = Catalog::new();
        // Hyphenated legacy names: bare `x.zip-code` would lex as a
        // subtraction, so generation must quote.
        cat.load_script(
            "CREATE TABLE Addr (\"zip-code\" INT, \"street name\" CHAR(20));
             INSERT INTO Addr VALUES (10, 'a'), (10, 'b'), (20, 'c');",
        )
        .unwrap();
        let db = cat.into_database();
        let (rel, ids) = db.resolve("Addr", &["zip-code"]).unwrap();
        let side = IndSide::new(rel, ids.clone());
        assert_eq!(
            count_side_sql(&db, &side),
            "SELECT COUNT(DISTINCT x.\"zip-code\") FROM Addr x"
        );
        let backend = SqlBackend::new();
        assert_eq!(backend.count_distinct(&db, rel, &ids), 2);
        let (_, both) = db.resolve("Addr", &["zip-code", "street name"]).unwrap();
        assert_eq!(backend.count_distinct(&db, rel, &both), 3);
        assert_eq!(backend.failures(), 0, "quoted identifiers executed");
    }
}
