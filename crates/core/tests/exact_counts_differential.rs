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
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::counting::EquiJoin;
use dbre_relational::database::Database;
use dbre_relational::deps::IndSide;
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::value::{Domain, OrdF64, Value};
use proptest::prelude::*;

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

/// One pipeline run on the given backend, with key inference on.
fn run(db: &Database, q: &[EquiJoin], backend: BackendChoice) -> PipelineResult {
    let options = PipelineOptions {
        backend,
        infer_missing_keys: true,
        ..Default::default()
    };
    let mut oracle = AutoOracle::default();
    run_with_q(db.clone(), q, &mut oracle, &options)
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

/// Deterministic witness for key inference's last-level pigeonhole
/// bound: in `T(a, b, c, d)` holding all eight `(a, b, c) ∈ {0, 1}³`
/// and a constant `d`, the width-3 candidates containing `d` have at
/// most 4 distinct projections over 8 rows and are skipped, while
/// `{a, b, c}` — at most 8, exactly the row count — must still be
/// tested and found to be the key.
#[test]
fn pigeonhole_skips_only_impossible_candidates() {
    let mut db = Database::new();
    let t = db
        .add_relation(Relation::of(
            "T",
            &[
                ("a", Domain::Int),
                ("b", Domain::Int),
                ("c", Domain::Int),
                ("d", Domain::Int),
            ],
        ))
        .unwrap();
    for row in 0..8i64 {
        let bits = [row & 1, (row >> 1) & 1, (row >> 2) & 1, 7];
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
    assert_eq!(key(&reference), Some(AttrSet::from_indices([0u16, 1, 2])));
    for backend in [BackendChoice::Encoded, BackendChoice::Paged] {
        let out = run(&db, &[], backend);
        assert_eq!(key(&out), key(&reference), "backend {}", backend.name());
        assert!(
            out.stats.sketch.pruned > 0,
            "{}: {:?}",
            backend.name(),
            out.stats.sketch
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
