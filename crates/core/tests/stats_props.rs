//! Property tests for the memoized counting engine: on random small
//! databases the StatsEngine-backed statistics must agree with both the
//! naive columnar primitives and the generated-SQL backend, and cache
//! invalidation must never serve stale counts across mutations.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::unwrap_used)]

use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::backend::CountBackend;
use dbre_relational::counting::{join_stats, EquiJoin};
use dbre_relational::database::Database;
use dbre_relational::deps::{Fd, Ind, IndSide};
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::stats::StatsEngine;
use dbre_relational::value::{Domain, Value};
use dbre_sql::counts::join_stats_via_sql;
use proptest::prelude::*;

/// Encodes `0..=CAP` as ints with the top value mapped to NULL, so the
/// generated extensions exercise NULL semantics too.
fn val(code: i64) -> Value {
    if code == 5 {
        Value::Null
    } else {
        Value::Int(code)
    }
}

/// Two binary relations filled from the generated row codes.
fn two_relations(left_rows: &[(i64, i64)], right_rows: &[(i64, i64)]) -> (Database, RelId, RelId) {
    let mut db = Database::new();
    let l = db
        .add_relation(Relation::of("L", &[("a", Domain::Int), ("b", Domain::Int)]))
        .unwrap();
    let r = db
        .add_relation(Relation::of("R", &[("c", Domain::Int), ("d", Domain::Int)]))
        .unwrap();
    for &(x, y) in left_rows {
        db.insert(l, vec![val(x), val(y)]).unwrap();
    }
    for &(x, y) in right_rows {
        db.insert(r, vec![val(x), val(y)]).unwrap();
    }
    (db, l, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine ≡ naive ≡ executed SQL, for unary and composite joins.
    #[test]
    fn three_way_join_stats_agreement(
        left_rows in prop::collection::vec((0i64..=5, 0i64..=5), 0..24),
        right_rows in prop::collection::vec((0i64..=5, 0i64..=5), 0..24),
    ) {
        let (db, l, r) = two_relations(&left_rows, &right_rows);
        let engine = StatsEngine::new();
        let joins = [
            EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0))).unwrap(),
            EquiJoin::try_new(
                IndSide::new(l, vec![AttrId(0), AttrId(1)]),
                IndSide::new(r, vec![AttrId(0), AttrId(1)]),
            ).unwrap(),
        ];
        for join in &joins {
            let naive = join_stats(&db, join);
            prop_assert_eq!(engine.join_stats(&db, join), naive);
            // Second read is served from cache — must not drift.
            prop_assert_eq!(engine.join_stats(&db, join), naive);
            let via_sql = join_stats_via_sql(&db, join).unwrap();
            prop_assert_eq!(via_sql, naive);
        }
    }

    /// FD and IND verdicts through the engine match the Database's.
    #[test]
    fn engine_fd_ind_agree_with_database(
        left_rows in prop::collection::vec((0i64..=5, 0i64..=5), 0..24),
        right_rows in prop::collection::vec((0i64..=5, 0i64..=5), 0..24),
    ) {
        let (db, l, r) = two_relations(&left_rows, &right_rows);
        let engine = StatsEngine::new();
        for rel in [l, r] {
            for (lhs, rhs) in [(0u16, 1u16), (1, 0)] {
                let fd = Fd::new(
                    rel,
                    AttrSet::from_indices([lhs]),
                    AttrSet::from_indices([rhs]),
                );
                prop_assert_eq!(engine.fd_holds(&db, &fd), db.fd_holds(&fd));
                // Cached second answer.
                prop_assert_eq!(engine.fd_holds(&db, &fd), db.fd_holds(&fd));
            }
        }
        for (from, to) in [(l, r), (r, l)] {
            let ind = Ind::unary(from, AttrId(0), to, AttrId(0));
            prop_assert_eq!(engine.ind_holds(&db, &ind), db.ind_holds(&ind));
        }
    }

    /// Mutations (inserts, new relations) must invalidate exactly the
    /// affected entries: every post-mutation read agrees with a naive
    /// recomputation.
    #[test]
    fn invalidation_never_serves_stale_counts(
        left_rows in prop::collection::vec((0i64..=5, 0i64..=5), 1..16),
        right_rows in prop::collection::vec((0i64..=5, 0i64..=5), 1..16),
        extra in prop::collection::vec((0i64..=5, 0i64..=5), 1..8),
    ) {
        let (mut db, l, r) = two_relations(&left_rows, &right_rows);
        let engine = StatsEngine::new();
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0))).unwrap();
        let fd = Fd::new(r, AttrSet::from_indices([0u16]), AttrSet::from_indices([1u16]));

        // Warm every cache family.
        engine.join_stats(&db, &join);
        engine.fd_holds(&db, &fd);
        engine.partition1(&db, r, AttrId(1));

        for (i, &(x, y)) in extra.iter().enumerate() {
            db.insert(r, vec![val(x), val(y)]).unwrap();
            if i == extra.len() / 2 {
                // Conceptualization-style mutation: a new relation must
                // not disturb (or be disturbed by) existing entries.
                db.add_relation(Relation::of(
                    &format!("N{i}"),
                    &[("x", Domain::Int)],
                ))
                .unwrap();
            }
            prop_assert_eq!(engine.join_stats(&db, &join), join_stats(&db, &join));
            prop_assert_eq!(engine.fd_holds(&db, &fd), db.fd_holds(&fd));
            prop_assert_eq!(
                engine.count_distinct(&db, r, &[AttrId(0)]),
                db.table(r).count_distinct(&[AttrId(0)])
            );
            let direct = dbre_relational::partitions::StrippedPartition::for_attribute(
                db.table(r),
                AttrId(1),
            );
            prop_assert_eq!((*engine.partition1(&db, r, AttrId(1))).clone(), direct);
        }
    }
}
