//! Differential proptests for the one FD answer every FD question
//! reads: `CountBackend::fd_error` must equal the `Value`-level g3
//! reference [`fd_error`], and be 0 exactly when `Database::fd_holds`
//! holds — on tables with NULL and NaN cells, composite LHS and RHS,
//! over every in-crate backend, on resident tables and on their
//! streamed twins over a one-page pool, both raw and through a
//! `StatsEngine`, on its miss path and then its hit path.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::expect_used)]

use dbre_mine::fd_error;
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::backend::{CountBackend, EncodedBackend, ReferenceBackend};
use dbre_relational::database::Database;
use dbre_relational::deps::Fd;
use dbre_relational::encode::DictBuilder;
use dbre_relational::pages::{PageFileWriter, PagedBackend, PagedColumn, PAGE_BYTES};
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::stats::StatsEngine;
use dbre_relational::table::Table;
use dbre_relational::value::{Domain, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// A small value pool engineered for collisions: repeated ints and
/// strings, NULLs and NaN (equal to itself by bit key). Entries repeat
/// to bias the uniform draw.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..3).prop_map(Value::Int),
        (0i64..3).prop_map(Value::Int),
        (0i64..3).prop_map(Value::Int),
        Just(Value::Null),
        Just(Value::str("a")),
        Just(Value::float(f64::NAN)),
        Just(Value::float(0.5)),
    ]
}

/// A table of 1–4 columns and up to 40 rows, with an LHS and an RHS
/// over its columns (either may be composite, or empty).
fn case() -> impl Strategy<Value = (Table, AttrSet, AttrSet)> {
    (
        1usize..5,
        prop::collection::vec(prop::collection::vec(value(), 4), 0..40),
        prop::collection::vec(0u16..4, 0..3),
        prop::collection::vec(0u16..4, 0..3),
    )
        .prop_map(|(arity, rows, lhs, rhs)| {
            let rows = rows.into_iter().map(|mut r| {
                r.truncate(arity);
                r
            });
            let table = Table::from_rows(arity, rows).expect("rows match arity");
            let set =
                |ids: Vec<u16>| AttrSet::from_indices(ids.into_iter().map(|i| i % arity as u16));
            (table, set(lhs), set(rhs))
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

/// `t` as the resident extension of a one-relation database.
fn resident(t: &Table) -> (Database, RelId) {
    let mut db = Database::new();
    let rel = db
        .add_relation_with_table(relation_of(t), t.clone())
        .expect("arity matches");
    (db, rel)
}

/// `t`'s streamed twin: a database whose relation holds `t`'s cells in
/// paged columns, interned and written one cell at a time as streamed
/// ingest does.
fn streamed(t: &Table) -> (Database, RelId) {
    let columns = (0..t.arity())
        .map(|i| {
            let mut b = DictBuilder::new();
            let mut w = PageFileWriter::create_temp().expect("temp page file");
            for v in t.values(AttrId(i as u16)) {
                w.push(b.intern(v)).expect("write a code");
            }
            let pages = PagedColumn::new(w.finish().expect("finish the page file"), "T");
            b.finish_paged(Arc::new(pages))
        })
        .collect();
    let mut db = Database::new();
    let table = Table::from_columns(columns).expect("equal columns");
    let rel = db
        .add_relation_with_table(relation_of(t), table)
        .expect("fresh schema");
    (db, rel)
}

/// A paged backend over a one-page pool.
fn paged() -> PagedBackend {
    PagedBackend::with_capacity_bytes(PAGE_BYTES)
}

/// One FD asked of one extension: the database, the FD, a backend
/// asked directly and an identical one for a `StatsEngine` to wrap.
type Run = (Database, Fd, Box<dyn CountBackend>, Box<dyn CountBackend>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fd_error_matches_the_value_reference(case in case()) {
        let (t, lhs, rhs) = case;
        let (l, r): (Vec<AttrId>, Vec<AttrId>) = (lhs.iter().collect(), rhs.iter().collect());
        let expected = fd_error(&t, &l, &r);
        let (db, rel) = resident(&t);
        let fd = Fd::new(rel, lhs, rhs);
        let holds = db.fd_holds(&fd);
        prop_assert_eq!(expected == 0.0, holds);

        // Resident tables on every in-crate backend, then the streamed
        // twin, whose cells only the paged backend serves.
        let resident_backends = || -> Vec<Box<dyn CountBackend>> {
            vec![
                Box::new(ReferenceBackend),
                Box::new(EncodedBackend::new()),
                Box::new(PagedBackend::with_capacity_bytes(PAGE_BYTES)),
            ]
        };
        let mut runs: Vec<Run> = resident_backends()
                .into_iter()
                .zip(resident_backends())
                .map(|(raw, wrapped)| (db.clone(), fd.clone(), raw, wrapped))
                .collect();
        let (twin, trel) = streamed(&t);
        let (raw, wrapped) = (paged(), paged());
        let tfd = Fd { rel: trel, ..fd.clone() };
        runs.push((twin, tfd, Box::new(raw), Box::new(wrapped)));

        for (db, fd, raw, wrapped) in runs {
            let name = raw.name();
            prop_assert_eq!(raw.fd_error(&db, &fd), expected, "raw {}", name);
            prop_assert_eq!(raw.fd_holds(&db, &fd), holds, "raw {}", name);
            let engine = StatsEngine::with_backend(wrapped);
            prop_assert_eq!(engine.fd_error(&db, &fd), expected, "engine miss {}", name);
            let misses = engine.counters().cache_misses;
            prop_assert_eq!(engine.fd_error(&db, &fd), expected, "engine hit {}", name);
            prop_assert_eq!(engine.fd_holds(&db, &fd), holds, "engine hit {}", name);
            prop_assert_eq!(engine.counters().cache_misses, misses, "the second ask is a hit");
        }
    }
}
