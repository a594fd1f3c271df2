//! Differential test: the three counting backends — the naive columnar
//! primitives (`dbre_relational::counting`), the memoized
//! [`StatsEngine`], and the generated-SQL backend
//! (`dbre_sql::counts`) — must agree on a NULL-bearing database.
//!
//! SQL semantics pin the expected numbers: `COUNT(DISTINCT X)` drops
//! rows where any counted column is NULL, and an equi-join predicate
//! `x = y` is UNKNOWN (not TRUE) when either side is NULL, so NULLs
//! never match anything, including other NULLs.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::expect_used)]

use dbre_relational::attr::AttrId;
use dbre_relational::backend::CountBackend;
use dbre_relational::counting::{join_stats, EquiJoin};
use dbre_relational::database::Database;
use dbre_relational::deps::IndSide;
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::stats::StatsEngine;
use dbre_relational::value::{Domain, Value};
use dbre_sql::counts::join_stats_via_sql;

fn v(code: i64) -> Value {
    if code < 0 {
        Value::Null
    } else {
        Value::Int(code)
    }
}

/// Two binary relations; `-1` row codes become NULL.
fn null_db(left: &[(i64, i64)], right: &[(i64, i64)]) -> (Database, RelId, RelId) {
    let mut db = Database::new();
    let l = db
        .add_relation(Relation::of("L", &[("a", Domain::Int), ("b", Domain::Int)]))
        .expect("fresh schema");
    let r = db
        .add_relation(Relation::of("R", &[("c", Domain::Int), ("d", Domain::Int)]))
        .expect("fresh schema");
    for &(x, y) in left {
        db.insert(l, vec![v(x), v(y)]).expect("arity 2");
    }
    for &(x, y) in right {
        db.insert(r, vec![v(x), v(y)]).expect("arity 2");
    }
    (db, l, r)
}

#[test]
fn three_backends_agree_on_null_bearing_database() {
    // L: (1,1) (2,NULL) (NULL,3) (NULL,NULL) (2,NULL) [dup] (4,5)
    // R: (1,9) (NULL,9) (2,2) (7,NULL)
    let (db, l, r) = null_db(
        &[(1, 1), (2, -1), (-1, 3), (-1, -1), (2, -1), (4, 5)],
        &[(1, 9), (-1, 9), (2, 2), (7, -1)],
    );

    // Single-attribute join on (L.a, R.c).
    let join1 = EquiJoin::try_new(
        IndSide::new(l, vec![AttrId(0)]),
        IndSide::new(r, vec![AttrId(0)]),
    )
    .unwrap();
    // Two-attribute join on (L.a,L.b) vs (R.c,R.d).
    let join2 = EquiJoin::try_new(
        IndSide::new(l, vec![AttrId(0), AttrId(1)]),
        IndSide::new(r, vec![AttrId(0), AttrId(1)]),
    )
    .unwrap();

    let engine = StatsEngine::new();
    for join in [&join1, &join2] {
        let naive = join_stats(&db, join);
        let memoized = engine.join_stats(&db, join);
        let sql = join_stats_via_sql(&db, join).expect("generated SQL executes");
        assert_eq!(naive, memoized, "naive vs StatsEngine on {join:?}");
        assert_eq!(naive, sql, "naive vs SQL backend on {join:?}");
    }

    // Pin the absolute numbers so all three backends agreeing on the
    // *wrong* convention cannot pass. distinct a ∈ {1,2,4} (NULLs
    // dropped), distinct c ∈ {1,2,7}, intersection {1,2}.
    let s1 = join_stats(&db, &join1);
    assert_eq!((s1.n_left, s1.n_right, s1.n_join), (3, 3, 2));
    // Pairs: L has (1,1),(4,5) non-NULL; R has (1,9),(2,2); no overlap.
    let s2 = join_stats(&db, &join2);
    assert_eq!((s2.n_left, s2.n_right, s2.n_join), (2, 2, 0));

    // Distinct count of a NULL-bearing single column, both ways.
    assert_eq!(db.table(l).distinct_projection(&[AttrId(0)]).len(), 3);
    assert_eq!(engine.count_distinct(&db, l, &[AttrId(0)]), 3);

    // All-NULL column: COUNT(DISTINCT) is 0 under SQL semantics.
    let (db2, l2, r2) = null_db(&[(-1, 1), (-1, 2)], &[(-1, 1)]);
    let join_null = EquiJoin::try_new(
        IndSide::new(l2, vec![AttrId(0)]),
        IndSide::new(r2, vec![AttrId(0)]),
    )
    .unwrap();
    let engine2 = StatsEngine::new();
    let naive = join_stats(&db2, &join_null);
    assert_eq!((naive.n_left, naive.n_right, naive.n_join), (0, 0, 0));
    assert_eq!(naive, engine2.join_stats(&db2, &join_null));
    assert_eq!(
        naive,
        join_stats_via_sql(&db2, &join_null).expect("generated SQL executes")
    );
}
