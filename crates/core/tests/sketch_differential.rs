//! Differential property tests for sketch-accelerated discovery: with
//! a deterministic oracle, a sketch-pruned pipeline run must produce
//! the exact same accepted presumptions (INDs, FDs, join stats) and
//! the byte-identical decision log as the exact-only run — on all four
//! counting backends, over NULL-heavy and NaN-bearing extensions.
//!
//! This is the tentpole no-false-negative obligation: sketches may
//! only suppress exact work whose outcome they can prove.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::unwrap_used)]

use dbre_core::oracle::AutoOracle;
use dbre_core::pipeline::{run_with_q, PipelineOptions};
use dbre_core::session::BackendChoice;
use dbre_relational::attr::AttrId;
use dbre_relational::counting::EquiJoin;
use dbre_relational::database::Database;
use dbre_relational::deps::IndSide;
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::sketch::SketchMode;
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
/// are equal `Value`s and must sketch/count consistently), 5 is NULL.
fn float_val(code: i64) -> Value {
    match code {
        5 => Value::Null,
        4 => Value::Float(OrdF64(f64::NAN)),
        c => Value::Float(OrdF64(c as f64)),
    }
}

/// Two relations with an int and a float column each; `shift` moves
/// the right relation's int values into a disjoint range so the
/// hash-disjointness proof actually fires on some inputs.
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

/// One pipeline run with the given backend and sketch mode.
fn run(
    db: &Database,
    q: &[EquiJoin],
    backend: BackendChoice,
    sketch: SketchMode,
) -> dbre_core::pipeline::PipelineResult {
    let options = PipelineOptions {
        backend,
        sketch,
        infer_missing_keys: true,
        ..Default::default()
    };
    let mut oracle = AutoOracle::default();
    run_with_q(db.clone(), q, &mut oracle, &options)
}

const BACKENDS: [BackendChoice; 4] = [
    BackendChoice::Reference,
    BackendChoice::Encoded,
    BackendChoice::Sql,
    BackendChoice::Paged,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sketch-on ≡ sketch-off, per backend: accepted presumptions,
    /// per-join cardinalities, and the full decision log.
    #[test]
    fn sketch_on_equals_sketch_off_on_all_backends(
        left in prop::collection::vec((0i64..=5, 0i64..=5), 0..20),
        right in prop::collection::vec((0i64..=5, 0i64..=5), 0..20),
        disjoint in any::<bool>(),
    ) {
        let shift = if disjoint { 100 } else { 0 };
        let (db, _, _, q) = build_db(&left, &right, shift);
        for backend in BACKENDS {
            let exact = run(&db, &q, backend, SketchMode::Off);
            let pruned = run(&db, &q, backend, SketchMode::On);
            prop_assert_eq!(
                &pruned.log, &exact.log,
                "decision log diverged on {}", backend.name()
            );
            prop_assert_eq!(
                &pruned.ind.inds, &exact.ind.inds,
                "IND set diverged on {}", backend.name()
            );
            prop_assert_eq!(
                &pruned.ind.join_stats, &exact.ind.join_stats,
                "join cardinalities diverged on {}", backend.name()
            );
            prop_assert_eq!(
                &pruned.ind.empty_intersections, &exact.ind.empty_intersections,
                "case-(i) flags diverged on {}", backend.name()
            );
            prop_assert_eq!(
                &pruned.rhs.fds, &exact.rhs.fds,
                "FD set diverged on {}", backend.name()
            );
            prop_assert_eq!(
                pruned.rhs.fd_checks, exact.rhs.fd_checks,
                "fd_checks metric diverged on {}", backend.name()
            );
            // Exact-only runs must never report sketch work.
            prop_assert_eq!(exact.stats.sketch.pruned, 0);
            prop_assert_eq!(exact.stats.sketch.candidates, 0);
        }
    }
}

/// Deterministic witness that the prefilter actually fires: disjoint
/// int columns on the encoded backend must be pruned (no exact kernel)
/// and still produce byte-identical output.
#[test]
fn disjoint_join_is_pruned_with_identical_output() {
    let left: Vec<(i64, i64)> = (0..4).map(|i| (i, i)).collect();
    let right: Vec<(i64, i64)> = (0..4).map(|i| (i, i)).collect();
    let (db, _, _, q) = build_db(&left, &right, 100);
    let exact = run(&db, &q, BackendChoice::Encoded, SketchMode::Off);
    let pruned = run(&db, &q, BackendChoice::Encoded, SketchMode::On);
    assert_eq!(pruned.log, exact.log);
    assert_eq!(pruned.ind.join_stats, exact.ind.join_stats);
    assert!(
        pruned.stats.sketch.pruned >= 2,
        "both int-join directions are provably disjoint: {:?}",
        pruned.stats.sketch
    );
    assert!(pruned.stats.sketch.candidates >= pruned.stats.sketch.pruned);
    // The disjoint joins are flagged as case (i) either way.
    assert_eq!(pruned.ind.empty_intersections.len(), 2);
}

/// NULL-only and empty columns: sketches must not invent work or
/// verdicts where the exact path reports empty intersections.
#[test]
fn null_only_columns_stay_identical() {
    let left = vec![(5, 5), (5, 5)];
    let right = vec![(5, 5)];
    let (db, _, _, q) = build_db(&left, &right, 0);
    for backend in BACKENDS {
        let exact = run(&db, &q, backend, SketchMode::Off);
        let pruned = run(&db, &q, backend, SketchMode::On);
        assert_eq!(pruned.log, exact.log, "backend {}", backend.name());
        assert_eq!(
            pruned.ind.join_stats,
            exact.ind.join_stats,
            "backend {}",
            backend.name()
        );
    }
}
