//! Differential proptests: the dictionary-encoded kernels of
//! [`dbre_relational::encode`] must agree *exactly* with the Value-based
//! reference implementations in `table.rs` / `partitions.rs` /
//! `counting.rs` — on every generated table, including NULL-heavy and
//! NaN-bearing columns, under both NULL conventions (SQL skip-NULL for
//! counts / FD checks / LHS groups, NULL = NULL for partitions).
//!
//! Every case runs the one kernel family twice: over resident codes
//! and over the same codes spilled to page files read through a
//! one-page buffer pool. The references read cells through the
//! decoding accessor, which the round-trip properties at the end pin
//! to the generated cells, so a dictionary bug cannot hide on both
//! sides.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::expect_used)]

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dbre_relational::attr::AttrId;
use dbre_relational::backend::{CountBackend, EncodedBackend, ReferenceBackend};
use dbre_relational::bufpool::BufferPool;
use dbre_relational::counting::{join_stats, EquiJoin, JoinStats};
use dbre_relational::csv::{
    export_csv, import_csv, import_csv_files, import_csv_spilled, CsvTarget,
};
use dbre_relational::database::Database;
use dbre_relational::deps::{Fd, IndSide};
use dbre_relational::encode::{
    decode_set_cols, distinct_codes, intersect_count, lhs_groups, partition1, ColumnDict,
    DictBuilder,
};
use dbre_relational::error::RelationalError;
use dbre_relational::pages::{PageFileWriter, PagedBackend, PagedColumn, PAGE_BYTES};
use dbre_relational::partitions::StrippedPartition;
use dbre_relational::schema::{RelId, Relation};
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

/// Two tables plus equal-arity attribute lists, one to three columns
/// wide, for a cross-table join.
#[allow(clippy::type_complexity)]
fn join_case() -> impl Strategy<Value = (Table, Vec<AttrId>, Table, Vec<AttrId>)> {
    (
        1usize..4,
        1usize..4,
        raw_rows(3),
        raw_rows(3),
        prop::collection::vec((0u16..3, 0u16..3), 1..4),
    )
        .prop_map(|(la, ra, lrows, rrows, pairs)| {
            let lattrs = pairs.iter().map(|&(l, _)| AttrId(l % la as u16)).collect();
            let rattrs = pairs.iter().map(|&(_, r)| AttrId(r % ra as u16)).collect();
            (make_table(la, lrows), lattrs, make_table(ra, rrows), rattrs)
        })
}

/// The single relation `T(c0, c1, …)` shaped for `t`.
fn relation_of(t: &Table) -> Relation {
    let cols: Vec<(String, Domain)> = (0..t.arity())
        .map(|i| (format!("c{i}"), Domain::Int))
        .collect();
    let named: Vec<(&str, Domain)> = cols.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    Relation::of("T", &named)
}

/// Wraps a table in a single-relation database (`add_relation_with_table`
/// skips domain validation, so mixed-type proptest columns are fine).
fn db_of(t: &Table) -> (Database, RelId) {
    let mut db = Database::new();
    let rel = db
        .add_relation_with_table(relation_of(t), t.clone())
        .expect("arity matches");
    (db, rel)
}

/// `t`'s columns with their codes on temporary page files, interned
/// and written one cell at a time as streamed ingest does.
fn paged_columns(t: &Table) -> Vec<ColumnDict> {
    (0..t.arity())
        .map(|i| {
            let mut b = DictBuilder::new();
            let mut w = PageFileWriter::create_temp().expect("temp page file");
            for v in t.values(AttrId(i as u16)) {
                w.push(b.intern(v)).expect("write a code");
            }
            let pages = PagedColumn::new(w.finish().expect("finish the page file"), "T");
            b.finish_paged(Arc::new(pages))
        })
        .collect()
}

/// `t`'s streamed twin: a database whose only relation holds `t`'s
/// cells in paged columns, read by a paged backend over a one-page
/// pool.
fn streamed_twin(t: &Table) -> (Database, RelId, PagedBackend) {
    let mut db = Database::new();
    let table = Table::from_columns(paged_columns(t)).expect("equal columns");
    let rel = db
        .add_relation_with_table(relation_of(t), table)
        .expect("arity matches");
    (db, rel, PagedBackend::with_capacity_bytes(PAGE_BYTES))
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

/// One table's columns in both storage modes: the table's own
/// resident columns, and the same cells in paged columns read through
/// a one-page pool.
struct Stores {
    resident: Table,
    spilled: Vec<ColumnDict>,
    pool: BufferPool,
    rows: usize,
}

impl Stores {
    fn of(t: &Table) -> Stores {
        Stores {
            resident: t.clone(),
            spilled: paged_columns(t),
            pool: BufferPool::with_capacity_pages(1),
            rows: t.len(),
        }
    }

    fn resident(&self, attrs: &[AttrId]) -> Vec<&ColumnDict> {
        attrs.iter().map(|a| &**self.resident.column(*a)).collect()
    }

    fn spilled(&self, attrs: &[AttrId]) -> Vec<&ColumnDict> {
        attrs.iter().map(|a| &self.spilled[a.index()]).collect()
    }
}

/// Kernel results are the same whichever store served them; a page
/// read never fails on these fresh temp files.
fn read<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
    r.expect("kernel read its codes")
}

/// The decoded distinct projection, from either store.
fn decoded(cols: &[&ColumnDict], pool: &BufferPool, rows: usize) -> HashSet<Vec<Value>> {
    decode_set_cols(cols, &read(distinct_codes(cols, pool, rows)))
}

/// The three join cardinalities from the encoded sets of two sides,
/// from either store.
fn join_counts(
    (l, lp, lrows): (&[&ColumnDict], &BufferPool, usize),
    (r, rp, rrows): (&[&ColumnDict], &BufferPool, usize),
) -> JoinStats {
    let (ls, rs) = (
        read(distinct_codes(l, lp, lrows)),
        read(distinct_codes(r, rp, rrows)),
    );
    JoinStats {
        n_left: ls.len(),
        n_right: rs.len(),
        n_join: intersect_count(l, &ls, r, &rs),
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
        prop_assert_eq!(read(distinct_codes(&s.resident(&attrs), &s.pool, s.rows)).len(), expected);
        prop_assert_eq!(read(distinct_codes(&s.spilled(&attrs), &s.pool, s.rows)).len(), expected);
    }

    /// Decoding the encoded distinct set recovers the reference
    /// projection exactly (same tuples, not just the same count).
    #[test]
    fn distinct_sets_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let s = Stores::of(&t);
        let expected = t.distinct_projection(&attrs);
        prop_assert_eq!(decoded(&s.resident(&attrs), &s.pool, s.rows), expected.clone());
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
            prop_assert_eq!(read(partition1(s.resident(&[a])[0], &s.pool)), expected.clone());
            prop_assert_eq!(read(partition1(s.spilled(&[a])[0], &s.pool)), expected);
        }
    }

    /// FD checks (SQL convention) through `CountBackend::fd_holds`
    /// match an independent naive oracle — on the resident table (LHS
    /// groups from the kernels, RHS cells the raw values) and on its
    /// streamed twin over a one-page pool (groups read from the
    /// spilled pages, RHS cells the backend-served codes).
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
        let expected = naive_fd_holds(&t, &lhs, &rhs);
        let (db, rel) = db_of(&t);
        let fd = Fd {
            rel,
            lhs: lhs.iter().copied().collect(),
            rhs: rhs.iter().copied().collect(),
        };
        prop_assert_eq!(EncodedBackend::new().fd_holds(&db, &fd), expected);
        let (twin, trel, paged) = streamed_twin(&t);
        prop_assert_eq!(paged.fd_holds(&twin, &Fd { rel: trel, ..fd }), expected);
    }

    /// LHS groups (SQL convention) match the naive oracle exactly,
    /// including group membership and ordering.
    #[test]
    fn lhs_groups_agree(case in table_and_attrs()) {
        let (t, attrs) = case;
        let s = Stores::of(&t);
        let expected = naive_lhs_groups(&t, &attrs);
        prop_assert_eq!(read(lhs_groups(&s.resident(&attrs), &s.pool, s.rows)), expected.clone());
        prop_assert_eq!(read(lhs_groups(&s.spilled(&attrs), &s.pool, s.rows)), expected);
    }

    /// Cross-table join stats: code translation gives the same three
    /// cardinalities as the Value-based set intersection.
    #[test]
    fn join_stats_agree(case in join_case()) {
        let (lt, lattrs, rt, rattrs) = case;
        let (ls, rs) = (Stores::of(&lt), Stores::of(&rt));
        let resident = join_counts(
            (&ls.resident(&lattrs), &ls.pool, ls.rows),
            (&rs.resident(&rattrs), &rs.pool, rs.rows),
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
    /// generation-tagged caches.
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
                    "backend {}", engine.name()
                );
                for &a in &attrs {
                    prop_assert_eq!(
                        (*engine.partition1(&db, rel, a)).clone(),
                        StrippedPartition::for_attribute(&t, a),
                        "backend {}", engine.name()
                    );
                }
                prop_assert_eq!(
                    (*engine.lhs_groups(&db, rel, &attrs)).clone(),
                    naive_lhs_groups(&t, &attrs),
                    "backend {}", engine.name()
                );
                if !attrs.is_empty() {
                    let fd = Fd {
                        rel,
                        lhs: attrs.iter().copied().collect(),
                        rhs: rhs.iter().copied().collect(),
                    };
                    prop_assert_eq!(
                        engine.fd_holds(&db, &fd),
                        naive_fd_holds(&t, &attrs, &rhs),
                        "backend {}", engine.name()
                    );
                }
            }
        }
    }
}

// ---- declared keys: the dictionary check ---------------------------

/// A table of 2–4 integer columns over a domain small enough that
/// composite keys both hold and fail — NULL-free in half the cases,
/// which is the folded check, and with NULLs in the other half — plus
/// 1–3 keys of two or more of its columns, in declaration order.
fn keyed_table() -> impl Strategy<Value = (Table, Vec<Vec<AttrId>>)> {
    (
        2usize..5,
        1i64..7,
        any::<bool>(),
        prop::collection::vec(prop::collection::vec((0i64..7, 0u8..6), 4), 0..30),
        prop::collection::vec(prop::collection::vec(0u16..4, 2..5), 1..4),
    )
        .prop_map(|(arity, domain, nulls, rows, keys)| {
            let rows: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|r| {
                    r.into_iter()
                        .take(arity)
                        .map(|(v, n)| match nulls && n == 0 {
                            true => Value::Null,
                            false => Value::Int(v % domain),
                        })
                        .collect()
                })
                .collect();
            let t = Table::from_rows(arity, rows).expect("rows match arity");
            let keys = keys
                .into_iter()
                .map(|k| {
                    let mut k: Vec<AttrId> =
                        k.into_iter().map(|i| AttrId(i % arity as u16)).collect();
                    k.sort();
                    k.dedup();
                    k
                })
                .filter(|k| k.len() >= 2)
                .collect();
            (t, keys)
        })
}

/// Does composite key `key` hold in `t`, read cell by cell: as many
/// distinct NULL-free tuples as rows without a NULL in the key.
fn key_holds(t: &Table, key: &[AttrId]) -> bool {
    let null_free = (0..t.len()).filter(|&i| !t.row_has_null(i, key)).count();
    t.count_distinct(key) == null_free
}

proptest! {
    /// `validate_dictionary` over resident columns and over the same
    /// codes on pages read through its one-page pool: each composite
    /// key alone holds exactly when the `Value`-level reference says
    /// so, and with all of them declared the first violated key, in
    /// declaration order, is the one reported.
    #[test]
    fn composite_keys_check_like_the_reference(case in keyed_table()) {
        let (t, keys) = case;
        let (resident, rel) = db_of(&t);
        let (paged, paged_rel, _) = streamed_twin(&t);
        let relation = relation_of(&t);
        let violation = |key: &[AttrId]| RelationalError::KeyViolation {
            relation: relation.name.clone(),
            key: relation.render_set(&key.iter().copied().collect()),
        };
        let declare = |db: &Database, rel: RelId, keys: &[Vec<AttrId>]| {
            let mut db = db.clone();
            for key in keys {
                db.constraints.add_key(rel, key.iter().copied().collect());
            }
            db.validate_dictionary()
        };
        for key in &keys {
            let expected = if key_holds(&t, key) { Ok(()) } else { Err(violation(key)) };
            let one = std::slice::from_ref(key);
            prop_assert_eq!(&declare(&resident, rel, one), &expected, "key {:?}", key);
            prop_assert_eq!(&declare(&paged, paged_rel, one), &expected, "key {:?}", key);
        }
        let first = keys.iter().find(|k| !key_holds(&t, k));
        let expected = first.map_or(Ok(()), |k| Err(violation(k)));
        prop_assert_eq!(&declare(&resident, rel, &keys), &expected);
        prop_assert_eq!(&declare(&paged, paged_rel, &keys), &expected);
    }
}

// ---- round trips: a column reads back the cells it was given --------

/// The collision-prone pool plus text spelled `null` and the empty
/// string.
fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        value(),
        value(),
        value(),
        Just(Value::str("null")),
        Just(Value::str("")),
    ]
}

/// Rows of mixed-type cells, each `arity` wide.
fn mixed_rows() -> impl Strategy<Value = (usize, Vec<Vec<Value>>)> {
    (
        1usize..5,
        prop::collection::vec(prop::collection::vec(cell(), 4), 0..40),
    )
        .prop_map(|(arity, rows)| {
            let rows = rows
                .into_iter()
                .map(|mut r| {
                    r.truncate(arity);
                    r
                })
                .collect();
            (arity, rows)
        })
}

/// Rows of domain-typed columns: `cell()` draws kept when they fit
/// their column's domain (NULL fits every domain). One-column tables
/// are a third of the draws, so their NULL rows, which export as the
/// word `null`, are read back often.
fn typed_rows() -> impl Strategy<Value = (Vec<Domain>, Vec<Vec<Value>>)> {
    let domain = prop_oneof![Just(Domain::Int), Just(Domain::Float), Just(Domain::Text)];
    (
        prop::collection::vec(domain, 1..4),
        prop::collection::vec(prop::collection::vec(cell(), 3), 0..40),
    )
        .prop_map(|(domains, rows)| {
            let rows = rows
                .into_iter()
                .map(|r| {
                    domains
                        .iter()
                        .zip(r)
                        .map(|(&d, v)| if v.fits(d) { v } else { Value::Null })
                        .collect()
                })
                .collect();
            (domains, rows)
        })
}

/// Every way of reading `t`'s cells gives exactly `rows`: whole rows,
/// each column in order, and each cell alone.
fn reads_back(t: &Table, rows: &[Vec<Value>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(t.len(), rows.len());
    prop_assert_eq!(&t.rows().collect::<Vec<_>>(), rows);
    for a in 0..t.arity() {
        let attr = AttrId(a as u16);
        let column: Vec<&Value> = t.values(attr).collect();
        let expected: Vec<&Value> = rows.iter().map(|r| &r[a]).collect();
        prop_assert_eq!(column, expected);
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(t.cell(i, attr), &row[a]);
        }
    }
    Ok(())
}

proptest! {
    /// `Table::from_rows` and `push_row` (resident and paged columns
    /// alike, the paged ones written first to pages) read back the
    /// rows they were given, and so does Restruct's gather of any row
    /// selection, repeats included.
    #[test]
    fn constructed_tables_read_back_their_rows(
        case in mixed_rows(),
        picks in prop::collection::vec(0usize..40, 0..20),
    ) {
        let (arity, rows) = case;
        let t = Table::from_rows(arity, rows.clone()).expect("rows match arity");
        reads_back(&t, &rows)?;
        let mut pushed = Table::new(arity);
        let mut paged = Table::from_columns(paged_columns(&t)).expect("equal columns");
        reads_back(&paged, &rows)?;
        for row in &rows {
            pushed.push_row(row.clone()).expect("row matches arity");
            paged.push_row(row.clone()).expect("row matches arity");
        }
        reads_back(&pushed, &rows)?;
        let twice: Vec<Vec<Value>> = rows.iter().chain(&rows).cloned().collect();
        reads_back(&paged, &twice)?;

        let picks: Vec<usize> = picks.into_iter().filter(|&i| i < rows.len()).collect();
        let gathered: Vec<ColumnDict> =
            (0..arity).map(|a| t.column(AttrId(a as u16)).gather(&picks)).collect();
        let picked: Vec<Vec<Value>> = picks.iter().map(|&i| rows[i].clone()).collect();
        reads_back(&Table::from_columns(gathered).expect("equal columns"), &picked)?;
    }

    /// `Database::insert`, then `export_csv` read back by `import_csv`,
    /// by `import_csv_spilled` and by `import_csv_files` both ways (the
    /// resident load naming the file twice), over domain-typed columns:
    /// each table reads back the inserted rows.
    #[test]
    fn imported_tables_read_back_their_rows(case in typed_rows()) {
        let (domains, rows) = case;
        let names: Vec<String> = (0..domains.len()).map(|i| format!("c{i}")).collect();
        let spec: Vec<(&str, Domain)> =
            names.iter().map(String::as_str).zip(domains.iter().copied()).collect();
        let fresh = || {
            let mut db = Database::new();
            let rel = db.add_relation(Relation::of("T", &spec)).expect("fresh schema");
            (db, rel)
        };
        let (mut db, rel) = fresh();
        for row in &rows {
            db.insert(rel, row.clone()).expect("typed cells fit");
        }
        reads_back(db.table(rel), &rows)?;
        let csv = export_csv(&db, rel);

        let (mut mem, mem_rel) = fresh();
        import_csv(&mut mem, mem_rel, &csv).expect("exported CSV imports");
        reads_back(mem.table(mem_rel), &rows)?;

        let path = std::env::temp_dir().join(format!(
            "dbre-roundtrip-{}-{:016x}.csv",
            std::process::id(),
            csv.len() as u64 ^ (rows.len() as u64) << 32
        ));
        std::fs::write(&path, &csv).expect("write the CSV");
        let (mut streamed, streamed_rel) = fresh();
        let spilled = import_csv_spilled(&mut streamed, streamed_rel, &path, None);
        let (mut files, files_rel) = fresh();
        let twice = [(files_rel, path.clone()), (files_rel, path.clone())];
        let resident = import_csv_files(&mut files, &twice, CsvTarget::Resident, 2);
        let (mut files_streamed, files_streamed_rel) = fresh();
        let once = [(files_streamed_rel, path.clone())];
        let streamed_files =
            import_csv_files(&mut files_streamed, &once, CsvTarget::Streamed(None), 2);
        let _ = std::fs::remove_file(&path);
        spilled.expect("exported CSV streams");
        reads_back(streamed.table(streamed_rel), &rows)?;
        prop_assert!(resident.expect("exported CSV loads").is_empty());
        let both: Vec<Vec<Value>> = rows.iter().chain(&rows).cloned().collect();
        reads_back(files.table(files_rel), &both)?;
        prop_assert_eq!(streamed_files.expect("exported CSV streams").len(), 1);
        reads_back(files_streamed.table(files_streamed_rel), &rows)?;
    }
}
