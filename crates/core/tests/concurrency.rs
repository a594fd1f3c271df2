//! Concurrency suite: readers racing over several table versions
//! through one shared engine, and full concurrent sessions with
//! per-session decision-log determinism.
//!
//! Everything here is differential — concurrent answers are compared
//! against single-threaded recomputation on the same version — so a
//! torn cache entry, a stale generation tag, or cross-session log
//! interleaving fails loudly rather than flaking.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::unwrap_used)]

use dbre_core::oracle::{AutoOracle, ChaosOracle};
use dbre_core::pipeline::{run_with_q, PipelineOptions};
use dbre_core::service::{run_service, shared_engine};
use dbre_core::session::BackendChoice;
use dbre_extract::{extract_programs, ExtractConfig, ProgramSource};
use dbre_relational::attr::AttrId;
use dbre_relational::backend::{CountBackend, ReferenceBackend};
use dbre_relational::partitions::StrippedPartition;
use dbre_relational::schema::Relation;
use dbre_relational::value::{Domain, Value};
use dbre_relational::{Database, DbSnapshot, Fd, StatsEngine};

/// Deterministic pseudo-random cell for the fixture rows.
fn cell(seed: u64) -> Value {
    match seed % 5 {
        4 => Value::Null,
        v => Value::Int(v as i64),
    }
}

/// Four readers probe one shared engine over several versions of a
/// table, built beforehand by inserting into clones (so every version
/// carries its own generation tag). Each thread walks the versions in
/// a different order, so cache fills for different generations of
/// the same `(relation, attributes)` key race each other. Every
/// answer must equal a single-threaded recompute on the *same
/// version* — an entry filled for one generation may never be served
/// for another.
#[test]
fn concurrent_probes_across_versions_match_reference() {
    let mut db = Database::new();
    let rel = db
        .add_relation(Relation::of(
            "T",
            &[("a", Domain::Int), ("b", Domain::Int), ("c", Domain::Int)],
        ))
        .unwrap();
    let row = |s: u64| {
        vec![
            cell(s),
            cell(s.wrapping_mul(7) + 1),
            cell(s.wrapping_mul(13) + 2),
        ]
    };
    for i in 0..40u64 {
        db.insert(rel, row(i)).unwrap();
    }
    let mut versions = vec![db];
    for step in 0..6u64 {
        let mut next = versions[versions.len() - 1].clone();
        for j in 0..3 {
            next.insert(rel, row(step * 31 + j)).unwrap();
        }
        versions.push(next);
    }
    let engine = StatsEngine::new();
    let attr_sets: &[&[AttrId]] = &[
        &[AttrId(0)],
        &[AttrId(1), AttrId(2)],
        &[AttrId(0), AttrId(1), AttrId(2)],
    ];

    std::thread::scope(|scope| {
        for reader in 0..4usize {
            let engine = &engine;
            let versions = &versions;
            scope.spawn(move || {
                let reference = ReferenceBackend;
                for round in 0..30usize {
                    let snap = &versions[(round * (reader + 1) + reader) % versions.len()];
                    let table = snap.table(rel);
                    for attrs in attr_sets {
                        assert_eq!(
                            engine.count_distinct(snap, rel, attrs),
                            table.count_distinct(attrs),
                        );
                        for &a in *attrs {
                            assert_eq!(
                                *engine.partition1(snap, rel, a),
                                StrippedPartition::for_attribute(table, a),
                            );
                        }
                        assert_eq!(
                            *engine.lhs_groups(snap, rel, attrs),
                            *reference.lhs_groups(snap, rel, attrs),
                        );
                    }
                    let fd = Fd::new(
                        rel,
                        dbre_relational::attr::AttrSet::from_indices([reader as u16 % 3]),
                        dbre_relational::attr::AttrSet::from_indices([(reader as u16 + 1) % 3]),
                    );
                    assert_eq!(engine.fd_holds(snap, &fd), snap.fd_holds(&fd));
                }
            });
        }
    });
}

fn legacy() -> (Database, Vec<dbre_relational::EquiJoin>) {
    use dbre_sql::Catalog;
    let mut cat = Catalog::new();
    cat.load_script(
        "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
         CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30), amount INT);
         INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob'), (3, 'cid');
         INSERT INTO Orders VALUES (10, 1, 'ann', 5), (11, 1, 'ann', 7), (12, 2, 'bob', 3);",
    )
    .unwrap();
    let db = cat.into_database();
    let programs = vec![ProgramSource::sql(
        "report",
        "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
    )];
    let q = extract_programs(&db.schema, &programs, &ExtractConfig::default()).q();
    (db, q)
}

/// Eight concurrent sessions with *distinct* deterministic oracles:
/// each session's merged decision log must be byte-identical to a
/// serial solo run with the same oracle seed — concurrency may change
/// scheduling, never a session's answers or their order.
#[test]
fn concurrent_session_logs_match_their_serial_twins() {
    let (db, q) = legacy();
    let options = PipelineOptions {
        backend: BackendChoice::from_env(),
        ..Default::default()
    };

    // Serial twins, one per seed.
    let serial: Vec<_> = (0..8u64)
        .map(|seed| {
            let mut oracle = ChaosOracle::new(seed);
            run_with_q(db.clone(), &q, &mut oracle, &options).log
        })
        .collect();

    let snapshot = DbSnapshot::new(db);
    let engine = shared_engine(&options);
    let report = run_service(&snapshot, &engine, &q, &options, 8, |i| {
        ChaosOracle::new(i as u64)
    });
    assert_eq!(report.outcomes.len(), 8);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(
            outcome.result.log, serial[i],
            "session {i} diverged from its serial twin"
        );
    }
}

/// Identical oracles across sessions: all logs byte-identical to each
/// other and to the serial run (the acceptance gate the throughput
/// benchmark also enforces).
#[test]
fn homogeneous_sessions_are_byte_identical() {
    let (db, q) = legacy();
    let options = PipelineOptions::default();
    let mut oracle = AutoOracle::default();
    let serial = run_with_q(db.clone(), &q, &mut oracle, &options);

    let snapshot = DbSnapshot::new(db);
    let engine = shared_engine(&options);
    let report = run_service(&snapshot, &engine, &q, &options, 8, |_| {
        AutoOracle::default()
    });
    assert!(report.logs_identical());
    assert_eq!(report.outcomes[0].result.log, serial.log);
}
