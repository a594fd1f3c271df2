//! Differential proptests: the dictionary-encoded kernels of
//! [`dbre_relational::encode`] must agree *exactly* with the Value-based
//! reference implementations in `table.rs` / `partitions.rs` /
//! `counting.rs` — on every generated table, including NULL-heavy and
//! NaN-bearing columns, under both NULL conventions (SQL skip-NULL for
//! counts / FD checks / LHS groups, NULL = NULL for partitions).
//!
//! Every case runs the one kernel family twice: over resident codes
//! and over the same codes spilled to page files read through a
//! one-page buffer pool.
//!
//! The same file gates the default and `parallel` builds (CI runs both
//! feature sets), so the encoded path is pinned to the reference
//! byte-for-byte regardless of how the engine schedules work.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::expect_used)]

use std::collections::{HashMap, HashSet};

use dbre_relational::attr::AttrId;
use dbre_relational::backend::{EncodedBackend, ReferenceBackend};
use dbre_relational::bufpool::BufferPool;
use dbre_relational::counting::{join_stats, EquiJoin, JoinStats};
use dbre_relational::database::Database;
use dbre_relational::deps::IndSide;
use dbre_relational::encode::{
    decode_set_cols, distinct_codes, fd_holds, intersect_count, lhs_groups, partition1, CodeSource,
    ColumnDict,
};
use dbre_relational::pages::PagedColumn;
use dbre_relational::partitions::StrippedPartition;
use dbre_relational::schema::Relation;
use dbre_relational::stats::StatsEngine;
use dbre_relational::table::Table;
use dbre_relational::value::{Domain, Value};
use proptest::prelude::*;

// ---- generators -----------------------------------------------------

/// A small value pool engineered for collisions: repeated ints and
/// strings, NULLs, and a NaN (which must intern to a single code via
/// the total-order bit key, i.e. NaN = NaN for grouping). Entries are
/// repeated to bias the draw (the vendored `prop_oneof!` is uniform).
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(Value::Int),
        Just(Value::Null),
        Just(Value::Null),
        Just(Value::str("a")),
        Just(Value::str("b")),
        Just(Value::float(f64::NAN)),
        Just(Value::float(0.5)),
        Just(Value::float(-0.0)),
    ]
}

/// Raw rows at the maximum arity; callers truncate to the drawn arity.
fn raw_rows(max_arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(value(), max_arity), 0..40)
}

fn make_table(arity: usize, rows: Vec<Vec<Value>>) -> Table {
    let rows = rows.into_iter().map(|mut r| {
        r.truncate(arity);
        r
    });
    Table::from_rows(arity, rows).expect("rows match arity")
}

/// `(table, attrs)` where `attrs` indexes the table's columns —
/// possibly empty, possibly with repeats (projection lists from query
/// text can repeat a column).
fn table_and_attrs() -> impl Strategy<Value = (Table, Vec<AttrId>)> {
    (1usize..5, raw_rows(4), prop::collection::vec(0u16..4, 0..4)).prop_map(
        |(arity, rows, attrs)| {
            let attrs = attrs
                .into_iter()
                .map(|i| AttrId(i % arity as u16))
                .collect();
            (make_table(arity, rows), attrs)
        },
    )
}

/// Two tables plus equal-arity attribute lists for a cross-table join.
#[allow(clippy::type_complexity)]
fn join_case() -> impl Strategy<Value = (Table, Vec<AttrId>, Table, Vec<AttrId>)> {
    (
        1usize..4,
        1usize..4,
        raw_rows(3),
        raw_rows(3),
        prop::collection::vec((0u16..3, 0u16..3), 1..3),
    )
        .prop_map(|(la, ra, lrows, rrows, pairs)| {
            let lattrs = pairs.iter().map(|&(l, _)| AttrId(l % la as u16)).collect();
            let rattrs = pairs.iter().map(|&(_, r)| AttrId(r % ra as u16)).collect();
            (make_table(la, lrows), lattrs, make_table(ra, rrows), rattrs)
        })
}

/// Wraps a table in a single-relation database (`add_relation_with_table`
/// skips domain validation, so mixed-type proptest columns are fine).
fn db_of(t: &Table) -> (Database, dbre_relational::schema::RelId) {
    let mut db = Database::new();
    let cols: Vec<(String, Domain)> = (0..t.arity())
        .map(|i| (format!("c{i}"), Domain::Int))
        .collect();
    let named: Vec<(&str, Domain)> = cols.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    let rel = db
        .add_relation_with_table(Relation::of("T", &named), t.clone())
        .expect("arity matches");
    (db, rel)
}

// ---- Value-based naive references (independent of encode.rs) --------

/// SQL-convention FD check: rows with a NULL among the LHS are skipped;
/// surviving LHS groups must agree structurally on the RHS projection
/// (structural equality: Null = Null, NaN = NaN by bit key).
fn naive_fd_holds(t: &Table, lhs: &[AttrId], rhs: &[AttrId]) -> bool {
    let mut first: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
    for i in 0..t.len() {
        let key = t.project_row(i, lhs);
        if key.iter().any(Value::is_null) {
            continue;
        }
        let val = t.project_row(i, rhs);
        match first.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != val {
                    return false;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(val);
            }
        }
    }
    true
}

/// SQL-convention LHS groups: row-index groups of size ≥ 2 agreeing on
/// `attrs`, NULL-bearing rows skipped, groups ascending and sorted.
fn naive_lhs_groups(t: &Table, attrs: &[AttrId]) -> Vec<Vec<usize>> {
    let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for i in 0..t.len() {
        let key = t.project_row(i, attrs);
        if !attrs.is_empty() && key.iter().any(Value::is_null) {
            continue;
        }
        map.entry(key).or_default().push(i);
    }
    let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
    groups.sort();
    groups
}

// ---- both storage modes ---------------------------------------------

/// One table's columns in both storage modes: resident dictionaries,
/// and the same codes spilled to page files behind a one-page pool.
struct Stores {
    resident: Vec<ColumnDict>,
    spilled: Vec<PagedColumn>,
    pool: BufferPool,
    rows: usize,
}

impl Stores {
    fn of(t: &Table) -> Stores {
        let resident: Vec<ColumnDict> = (0..t.arity())
            .map(|i| ColumnDict::build(t.column(AttrId(i as u16))))
            .collect();
        let spilled = resident
            .iter()
            .map(|d| PagedColumn::from_dict(d).expect("spill to temp dir"))
            .collect();
        Stores {
            resident,
            spilled,
            pool: BufferPool::with_capacity_pages(1),
            rows: t.len(),
        }
    }

    fn resident(&self, attrs: &[AttrId]) -> Vec<&ColumnDict> {
        attrs.iter().map(|a| &self.resident[a.index()]).collect()
    }

    fn spilled(&self, attrs: &[AttrId]) -> Vec<&PagedColumn> {
        attrs.iter().map(|a| &self.spilled[a.index()]).collect()
    }
}

/// Kernel results are the same whichever store served them; a page
/// read never fails on these fresh temp files.
fn read<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
    r.expect("kernel read its codes")
}

fn dicts<'a, C: CodeSource>(cols: &[&'a C]) -> Vec<&'a ColumnDict> {
    cols.iter().map(|c| c.dict()).collect()
}

/// The decoded distinct projection, from either store.
fn decoded<C: CodeSource>(cols: &[&C], pager: &C::Pager, rows: usize) -> HashSet<Vec<Value>>
where
    C::Error: std::fmt::Debug,
{
    decode_set_cols(&dicts(cols), &read(distinct_codes(cols, pager, rows)))
}

/// The three join cardinalities from the encoded sets of two sides,
/// from either store.
fn join_counts<C: CodeSource>(
    (l, lp, lrows): (&[&C], &C::Pager, usize),
    (r, rp, rrows): (&[&C], &C::Pager, usize),
) -> JoinStats
where
    C::Error: std::fmt::Debug,
{
    let (ls, rs) = (
        read(distinct_codes(l, lp, lrows)),
        read(distinct_codes(r, rp, rrows)),
    );
    JoinStats {
        n_left: ls.len(),
        n_right: rs.len(),
        n_join: intersect_count(&dicts(l), &ls, &dicts(r), &rs),
    }
}

// ---- properties -----------------------------------------------------

proptest! {
    /// `‖π_attrs‖`: encoded count = reference count (SQL skip-NULL).
    #[test]
    fn counts_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let s = Stores::of(&t);
        let expected = t.count_distinct(&attrs);
        prop_assert_eq!(read(distinct_codes(&s.resident(&attrs), &(), s.rows)).len(), expected);
        prop_assert_eq!(read(distinct_codes(&s.spilled(&attrs), &s.pool, s.rows)).len(), expected);
    }

    /// Decoding the encoded distinct set recovers the reference
    /// projection exactly (same tuples, not just the same count).
    #[test]
    fn distinct_sets_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let s = Stores::of(&t);
        let expected = t.distinct_projection(&attrs);
        prop_assert_eq!(decoded(&s.resident(&attrs), &(), s.rows), expected.clone());
        prop_assert_eq!(decoded(&s.spilled(&attrs), &s.pool, s.rows), expected);
    }

    /// Unary stripped partitions (NULL = NULL convention) are
    /// byte-identical to the Value-based constructor.
    #[test]
    fn partitions_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let s = Stores::of(&t);
        for a in attrs {
            let expected = StrippedPartition::for_attribute(&t, a);
            prop_assert_eq!(read(partition1(s.resident(&[a])[0], &())), expected.clone());
            prop_assert_eq!(read(partition1(s.spilled(&[a])[0], &s.pool)), expected);
        }
    }

    /// FD checks (SQL convention) match an independent naive oracle.
    #[test]
    fn fd_holds_agrees(
        case in table_and_attrs(),
        rhs_seed in prop::collection::vec(0u16..4, 1..3),
    ) {
        let (t, lhs) = case;
        let rhs: Vec<AttrId> = rhs_seed
            .into_iter()
            .map(|i| AttrId(i % t.arity() as u16))
            .collect();
        let s = Stores::of(&t);
        let expected = naive_fd_holds(&t, &lhs, &rhs);
        prop_assert_eq!(
            read(fd_holds(&s.resident(&lhs), &s.resident(&rhs), &(), s.rows)),
            expected
        );
        prop_assert_eq!(
            read(fd_holds(&s.spilled(&lhs), &s.spilled(&rhs), &s.pool, s.rows)),
            expected
        );
    }

    /// LHS groups (SQL convention) match the naive oracle exactly,
    /// including group membership and ordering.
    #[test]
    fn lhs_groups_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let s = Stores::of(&t);
        let expected = naive_lhs_groups(&t, &attrs);
        prop_assert_eq!(read(lhs_groups(&s.resident(&attrs), &(), s.rows)), expected.clone());
        prop_assert_eq!(read(lhs_groups(&s.spilled(&attrs), &s.pool, s.rows)), expected);
    }

    /// Cross-table join stats: code translation gives the same three
    /// cardinalities as the Value-based set intersection.
    #[test]
    fn join_stats_agree(case in join_case()) {
        let (lt, lattrs, rt, rattrs) = case;
        let (ls, rs) = (Stores::of(&lt), Stores::of(&rt));
        let resident = join_counts(
            (&ls.resident(&lattrs), &(), ls.rows),
            (&rs.resident(&rattrs), &(), rs.rows),
        );
        let spilled = join_counts(
            (&ls.spilled(&lattrs), &ls.pool, ls.rows),
            (&rs.spilled(&rattrs), &rs.pool, rs.rows),
        );

        let mut db = Database::new();
        let mk = |n: usize| -> Vec<(String, Domain)> {
            (0..n).map(|i| (format!("c{i}"), Domain::Int)).collect()
        };
        let lcols = mk(lt.arity());
        let rcols = mk(rt.arity());
        let l = db
            .add_relation_with_table(
                Relation::of("L", &lcols.iter().map(|(n, d)| (n.as_str(), *d)).collect::<Vec<_>>()),
                lt,
            )
            .expect("arity matches");
        let r = db
            .add_relation_with_table(
                Relation::of("R", &rcols.iter().map(|(n, d)| (n.as_str(), *d)).collect::<Vec<_>>()),
                rt,
            )
            .expect("arity matches");
        let join = EquiJoin::try_new(IndSide::new(l, lattrs), IndSide::new(r, rattrs))
            .expect("equal arity by construction");
        let expected = join_stats(&db, &join);
        prop_assert_eq!(resident, expected);
        prop_assert_eq!(spilled, expected);
    }

    /// The memoizing engine agrees with the references through its
    /// public API over *every in-crate backend* (reference scans and
    /// the dictionary-encoded kernels; the SQL backend joins the
    /// matrix in `dbre-sql`'s `backend_differential`) — covering the
    /// generation-tagged caches and, under `--features parallel`, the
    /// shared read-only dictionary access from worker threads.
    #[test]
    fn engine_agrees_with_references(
        case in table_and_attrs(),
        rhs_seed in prop::collection::vec(0u16..4, 1..3),
    ) {
        let (t, attrs) = case;
        let rhs: Vec<AttrId> = rhs_seed
            .into_iter()
            .map(|i| AttrId(i % t.arity() as u16))
            .collect();
        let (db, rel) = db_of(&t);
        let engines = [
            StatsEngine::with_backend(Box::new(ReferenceBackend)),
            StatsEngine::with_backend(Box::new(EncodedBackend::new())),
        ];
        for engine in engines {
            // Twice: miss path, then hit path, must both agree.
            for _ in 0..2 {
                prop_assert_eq!(
                    engine.count_distinct(&db, rel, &attrs),
                    t.count_distinct(&attrs),
                    "backend {}", engine.backend_name()
                );
                prop_assert_eq!(
                    (*engine.partition_for_attrs(&db, rel, &attrs)).clone(),
                    StrippedPartition::for_attrs(&t, &attrs),
                    "backend {}", engine.backend_name()
                );
                prop_assert_eq!(
                    (*engine.lhs_groups(&db, rel, &attrs)).clone(),
                    naive_lhs_groups(&t, &attrs),
                    "backend {}", engine.backend_name()
                );
                if !attrs.is_empty() {
                    let fd = dbre_relational::deps::Fd {
                        rel,
                        lhs: attrs.iter().copied().collect(),
                        rhs: rhs.iter().copied().collect(),
                    };
                    prop_assert_eq!(
                        engine.fd_holds(&db, &fd),
                        naive_fd_holds(&t, &attrs, &rhs),
                        "backend {}", engine.backend_name()
                    );
                }
            }
        }
    }
}
