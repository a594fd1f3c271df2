//! Differential property tests for the exact-count shortcuts: with a
//! deterministic oracle and key inference on, all four counting
//! backends must produce the same accepted presumptions (INDs, FDs,
//! join stats, inferred keys) and the byte-identical decision log,
//! over NULL-heavy and NaN-bearing extensions.
//!
//! The reference and SQL backends serve no column counts, so they run
//! every probe; the encoded and paged backends settle unary keys and
//! pigeonhole-bounded key candidates from their dictionaries' exact
//! counts. The shortcuts may only skip work whose outcome the counts
//! prove, so the probe-only runs are the oracle.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::unwrap_used)]

use dbre_core::oracle::AutoOracle;
use dbre_core::pipeline::{run_with_q, PipelineOptions, PipelineResult};
use dbre_core::session::BackendChoice;
use dbre_mine::discover_keys_with_engine;
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::backend::{CountBackend, EncodedBackend, ReferenceBackend};
use dbre_relational::counting::{EquiJoin, JoinStats};
use dbre_relational::database::Database;
use dbre_relational::deps::IndSide;
use dbre_relational::encode::{ColumnDict, DictBuilder};
use dbre_relational::pages::{PageFileWriter, PagedBackend, PagedColumn};
use dbre_relational::partitions::StrippedPartition;
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::sketch::{ColumnSketch, SketchPruneStats};
use dbre_relational::spill::SpilledTable;
use dbre_relational::table::Table;
use dbre_relational::value::{Domain, OrdF64, Value};
use dbre_sql::SqlBackend;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Codes 0..=5 as an int column value: 5 is NULL (NULL-heavy when the
/// generator clusters high).
fn int_val(code: i64) -> Value {
    if code == 5 {
        Value::Null
    } else {
        Value::Int(code)
    }
}

/// Codes 0..=5 as a float column value: 4 is NaN (same-payload NaNs
/// are equal `Value`s and must count consistently), 5 is NULL.
fn float_val(code: i64) -> Value {
    match code {
        5 => Value::Null,
        4 => Value::Float(OrdF64(f64::NAN)),
        c => Value::Float(OrdF64(c as f64)),
    }
}

/// Two keyless relations with an int and a float column each; `shift`
/// moves the right relation's int values into a disjoint range so
/// case (i) (empty intersection) occurs on some inputs.
fn build_db(
    left: &[(i64, i64)],
    right: &[(i64, i64)],
    shift: i64,
) -> (Database, RelId, RelId, Vec<EquiJoin>) {
    let mut db = Database::new();
    let l = db
        .add_relation(Relation::of(
            "L",
            &[("a", Domain::Int), ("f", Domain::Float)],
        ))
        .unwrap();
    let r = db
        .add_relation(Relation::of(
            "R",
            &[("c", Domain::Int), ("g", Domain::Float)],
        ))
        .unwrap();
    for &(x, y) in left {
        db.insert(l, vec![int_val(x), float_val(y)]).unwrap();
    }
    for &(x, y) in right {
        let shifted = if x == 5 { x } else { x + shift };
        db.insert(r, vec![int_val(shifted), float_val(y)]).unwrap();
    }
    let q = vec![
        EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0))).unwrap(),
        EquiJoin::try_new(IndSide::single(l, AttrId(1)), IndSide::single(r, AttrId(1))).unwrap(),
        EquiJoin::try_new(IndSide::single(r, AttrId(0)), IndSide::single(l, AttrId(0))).unwrap(),
    ];
    (db, l, r, q)
}

/// `db`'s streamed twin: every relation's columns interned and written
/// to page files one cell at a time, as streamed ingest would, and the
/// spilled tables for the session.
fn streamed_twin(db: &Database) -> (Database, Vec<(RelId, Arc<SpilledTable>)>) {
    let mut twin = Database::new();
    let mut spilled = Vec::new();
    for (rel, relation) in db.schema.iter() {
        let table = db.table(rel);
        let columns: Vec<ColumnDict> = (0..table.arity())
            .map(|i| {
                let mut b = DictBuilder::new();
                let mut w = PageFileWriter::create_temp().unwrap();
                for v in table.values(AttrId(i as u16)) {
                    w.push(b.intern(v)).unwrap();
                }
                let pages = PagedColumn::new(w.finish().unwrap(), &relation.name);
                b.finish_paged(Arc::new(pages))
            })
            .collect();
        let pages = columns
            .iter()
            .map(|c| Arc::clone(c.pages().unwrap()))
            .collect();
        let paged = Table::from_columns(columns).unwrap();
        let streamed = twin
            .add_relation_with_table(relation.clone(), paged)
            .unwrap();
        let table = SpilledTable::new(pages, table.len(), false);
        spilled.push((streamed, Arc::new(table)));
    }
    twin.constraints = db.constraints.clone();
    (twin, spilled)
}

/// One pipeline run on the given backend, with key inference on. The
/// paged backend runs on `db`'s streamed twin, so its probes read
/// pages.
fn run(db: &Database, q: &[EquiJoin], backend: BackendChoice) -> PipelineResult {
    let mut options = PipelineOptions {
        backend,
        infer_missing_keys: true,
        ..Default::default()
    };
    let db = if backend == BackendChoice::Paged {
        let (twin, spilled) = streamed_twin(db);
        options.spilled = spilled;
        twin
    } else {
        db.clone()
    };
    let mut oracle = AutoOracle::default();
    run_with_q(db, q, &mut oracle, &options)
}

/// The key each input relation ended key inference with.
fn keys(r: &PipelineResult, rels: [RelId; 2]) -> Vec<Option<AttrSet>> {
    rels.iter()
        .map(|&rel| {
            r.db_before
                .constraints
                .primary_key(rel)
                .map(|k| k.attrs.clone())
        })
        .collect()
}

const BACKENDS: [BackendChoice; 4] = [
    BackendChoice::Reference,
    BackendChoice::Encoded,
    BackendChoice::Sql,
    BackendChoice::Paged,
];

/// Does the backend serve exact column counts?
fn serves_counts(backend: BackendChoice) -> bool {
    matches!(backend, BackendChoice::Encoded | BackendChoice::Paged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every backend ≡ the reference: accepted presumptions, per-join
    /// cardinalities, inferred keys and the full decision log.
    #[test]
    fn every_backend_equals_the_reference(
        left in prop::collection::vec((0i64..=5, 0i64..=5), 0..20),
        right in prop::collection::vec((0i64..=5, 0i64..=5), 0..20),
        disjoint in any::<bool>(),
    ) {
        let shift = if disjoint { 100 } else { 0 };
        let (db, l, r, q) = build_db(&left, &right, shift);
        let reference = run(&db, &q, BackendChoice::Reference);
        for backend in BACKENDS {
            let out = run(&db, &q, backend);
            prop_assert_eq!(
                &out.log, &reference.log,
                "decision log diverged on {}", backend.name()
            );
            prop_assert_eq!(
                &out.ind.inds, &reference.ind.inds,
                "IND set diverged on {}", backend.name()
            );
            prop_assert_eq!(
                &out.ind.join_stats, &reference.ind.join_stats,
                "join cardinalities diverged on {}", backend.name()
            );
            prop_assert_eq!(
                &out.ind.empty_intersections, &reference.ind.empty_intersections,
                "case-(i) flags diverged on {}", backend.name()
            );
            prop_assert_eq!(
                &out.rhs.fds, &reference.rhs.fds,
                "FD set diverged on {}", backend.name()
            );
            prop_assert_eq!(
                out.rhs.fd_checks, reference.rhs.fd_checks,
                "fd_checks metric diverged on {}", backend.name()
            );
            prop_assert_eq!(
                keys(&out, [l, r]), keys(&reference, [l, r]),
                "inferred keys diverged on {}", backend.name()
            );
            // Backends without counts never report shortcut work.
            if !serves_counts(backend) {
                prop_assert_eq!(out.stats.sketch.candidates, 0);
            }
        }
    }
}

/// Deterministic witness that the shortcuts fire: keyless relations
/// whose columns are unique and NULL-free are settled as unary keys
/// from the counts on the encoded and paged backends, and end with
/// the same inferred keys and output as the probe-only reference.
#[test]
fn unique_null_free_column_is_settled_from_counts() {
    let left: Vec<(i64, i64)> = (0..4).map(|i| (i, i)).collect();
    let right: Vec<(i64, i64)> = (0..4).map(|i| (i, i)).collect();
    let (db, l, r, q) = build_db(&left, &right, 100);
    let reference = run(&db, &q, BackendChoice::Reference);
    assert_eq!(
        keys(&reference, [l, r]),
        vec![
            Some(AttrSet::from_indices([0u16])),
            Some(AttrSet::from_indices([0u16]))
        ]
    );
    for backend in [BackendChoice::Encoded, BackendChoice::Paged] {
        let out = run(&db, &q, backend);
        assert!(
            out.stats.sketch.pruned > 0,
            "{}: {:?}",
            backend.name(),
            out.stats.sketch
        );
        assert!(out.stats.sketch.candidates >= out.stats.sketch.pruned);
        assert_eq!(keys(&out, [l, r]), keys(&reference, [l, r]));
        assert_eq!(out.log, reference.log, "backend {}", backend.name());
        assert_eq!(out.ind.join_stats, reference.ind.join_stats);
    }
}

/// Deterministic witness for key inference's pigeonhole bound, which
/// applies at every width: in `T(d, a, b, c)` holding a constant `d`
/// and all eight `(a, b, c) ∈ {0, 1}³`, every pair has at most 4
/// distinct projections over 8 rows, and so does every width-3
/// candidate containing `d`. Those six pairs and the three width-3
/// candidates ahead of `{a, b, c}` in bitmask order are skipped, while
/// `{a, b, c}` — at most 8, exactly the row count — must still be
/// tested and found to be the key. The four columns are counted too:
/// 14 candidates, 9 pruned, 5 verified.
#[test]
fn pigeonhole_skips_only_impossible_candidates() {
    let mut db = Database::new();
    let t = db
        .add_relation(Relation::of(
            "T",
            &[
                ("d", Domain::Int),
                ("a", Domain::Int),
                ("b", Domain::Int),
                ("c", Domain::Int),
            ],
        ))
        .unwrap();
    for row in 0..8i64 {
        let bits = [7, row & 1, (row >> 1) & 1, (row >> 2) & 1];
        db.insert(t, bits.iter().map(|&v| Value::Int(v)).collect())
            .unwrap();
    }
    let key = |r: &PipelineResult| {
        r.db_before
            .constraints
            .primary_key(t)
            .map(|k| k.attrs.clone())
    };
    let reference = run(&db, &[], BackendChoice::Reference);
    assert_eq!(key(&reference), Some(AttrSet::from_indices([1u16, 2, 3])));
    for backend in [BackendChoice::Encoded, BackendChoice::Paged] {
        let out = run(&db, &[], backend);
        assert_eq!(key(&out), key(&reference), "backend {}", backend.name());
        assert_eq!(
            out.stats.sketch,
            SketchPruneStats {
                candidates: 14,
                pruned: 9,
                verified: 5
            },
            "backend {}",
            backend.name()
        );
    }
}

/// Key inference past 32 columns: `W(c0, …, c39)` has 16 rows whose
/// only key is `{c33, c38}` (the two base-4 digits of the row number;
/// every other column is a parity bit, so no other pair reaches 16
/// distinct values), next to the small keyless `S(x, y)` keyed by
/// both columns. Every backend infers both keys, with no degraded
/// stage.
#[test]
fn keys_of_a_relation_wider_than_32_columns() {
    let mut db = Database::new();
    let names: Vec<String> = (0..40).map(|i| format!("c{i}")).collect();
    let columns: Vec<(&str, Domain)> = names.iter().map(|n| (n.as_str(), Domain::Int)).collect();
    let w = db.add_relation(Relation::of("W", &columns)).unwrap();
    for row in 0..16i64 {
        let cells = (0..40i64).map(|c| match c {
            33 => row / 4,
            38 => row % 4,
            _ => (row + c) % 2,
        });
        db.insert(w, cells.map(Value::Int).collect()).unwrap();
    }
    let s = db
        .add_relation(Relation::of("S", &[("x", Domain::Int), ("y", Domain::Int)]))
        .unwrap();
    for (x, y) in [(1, 1), (1, 2), (2, 1)] {
        db.insert(s, vec![Value::Int(x), Value::Int(y)]).unwrap();
    }
    for backend in BACKENDS {
        let out = run(&db, &[], backend);
        assert!(
            out.stage_errors.is_empty(),
            "{}: {:?}",
            backend.name(),
            out.stage_errors
        );
        assert_eq!(
            keys(&out, [w, s]),
            vec![
                Some(AttrSet::from_indices([33u16, 38])),
                Some(AttrSet::from_indices([0u16, 1]))
            ],
            "backend {}",
            backend.name()
        );
    }
}

/// NULL-only and empty columns: the counts must not invent work or
/// verdicts where the probes report empty intersections.
#[test]
fn null_only_columns_stay_identical() {
    let left = vec![(5, 5), (5, 5)];
    let right = vec![(5, 5)];
    let (db, _, _, q) = build_db(&left, &right, 0);
    let reference = run(&db, &q, BackendChoice::Reference);
    for backend in BACKENDS {
        let out = run(&db, &q, backend);
        assert_eq!(out.log, reference.log, "backend {}", backend.name());
        assert_eq!(
            out.ind.join_stats,
            reference.ind.join_stats,
            "backend {}",
            backend.name()
        );
    }
}

/// A backend decorator that records every column `partition1` builds.
struct PartitionLog {
    inner: Box<dyn CountBackend>,
    built: Mutex<Vec<AttrId>>,
}

impl CountBackend for PartitionLog {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        self.inner.count_distinct(db, rel, attrs)
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        self.inner.join_stats(db, join)
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        self.inner.lhs_groups(db, rel, attrs)
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        self.built.lock().unwrap().push(attr);
        self.inner.partition1(db, rel, attr)
    }

    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        self.inner.column_dict(db, rel, attr)
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        self.inner.column_sketch(db, rel, attr)
    }
}

/// Once the exact counts prove one column a key, key inference stops
/// at width 1, so no partition is built for a column the counts settle
/// — here the repeating `grp` — and only a column without counts gets
/// one. `K(id, grp, opt)`: `id` is unique and NULL-free, `grp` repeats,
/// `opt` holds a NULL. All four backends find the same key.
#[test]
fn a_count_proven_key_spares_the_count_settled_partitions() {
    let mut db = Database::new();
    let k = db
        .add_relation(Relation::of(
            "K",
            &[
                ("id", Domain::Int),
                ("grp", Domain::Int),
                ("opt", Domain::Int),
            ],
        ))
        .unwrap();
    for i in 0..6 {
        let opt = if i == 3 { Value::Null } else { Value::Int(i) };
        db.insert(k, vec![Value::Int(i), Value::Int(i % 2), opt])
            .unwrap();
    }
    let backends: [Box<dyn CountBackend>; 4] = [
        Box::new(ReferenceBackend),
        Box::new(EncodedBackend::new()),
        Box::new(SqlBackend::new()),
        Box::new(PagedBackend::new()),
    ];
    for inner in backends {
        let counted = matches!(inner.name(), "encoded" | "paged");
        let log = PartitionLog {
            inner,
            built: Mutex::new(Vec::new()),
        };
        let result = discover_keys_with_engine(&db, k, Some(3), &log);
        let name = log.name();
        assert_eq!(result.key, Some(AttrSet::from_indices([0u16])), "{name}");
        let built = log.built.into_inner().unwrap();
        if counted {
            assert!(built.is_empty(), "{name} built partitions for {built:?}");
            assert_eq!(result.stats.sketch.pruned, 2, "{name}");
        } else {
            assert_eq!(built, vec![AttrId(0), AttrId(1)], "{name}");
        }
    }
}
