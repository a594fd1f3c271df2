//! Single-FD verification backends.
//!
//! RHS-Discovery tests one candidate FD at a time against the
//! extension (`A → b holds in r_i`, step (i) of the algorithm). Three
//! interchangeable checks are provided so the ablation bench can
//! compare them:
//!
//! * [`check_hash`] — one hash pass grouping LHS projections (SQL NULL
//!   semantics: tuples with NULL on the LHS are skipped, like
//!   `Database::fd_holds`);
//! * [`check_partition`] — stripped-partition refinement (NULL = NULL
//!   mining convention);
//! * [`check_cached`] — served through the counting seam, so the
//!   dictionary-encoded kernels (and any engine's memoized LHS
//!   grouping) answer with the same SQL semantics as [`check_hash`].
//!
//! [`violations`] additionally reports *how badly* an FD fails — the
//! `g3` counter backing approximate dependencies in [`crate::approx`].

use crate::partitions::fd_holds_partition;
use dbre_relational::attr::AttrId;
use dbre_relational::backend::CountBackend;
use dbre_relational::database::Database;
use dbre_relational::deps::Fd;
use dbre_relational::table::Table;
use dbre_relational::value::Value;
use std::collections::HashMap;

/// Hash-based FD check with SQL NULL semantics (the `Value`-level
/// reference implementation; column slices hoisted out of the row
/// loop).
pub fn check_hash(table: &Table, lhs: &[AttrId], rhs: &[AttrId]) -> bool {
    let lhs_cols: Vec<&[Value]> = lhs.iter().map(|a| table.column(*a)).collect();
    let rhs_cols: Vec<&[Value]> = rhs.iter().map(|a| table.column(*a)).collect();
    let mut map: HashMap<Vec<Value>, usize> = HashMap::new();
    'rows: for i in 0..table.len() {
        let mut key = Vec::with_capacity(lhs_cols.len());
        for c in &lhs_cols {
            let v = &c[i];
            if v.is_null() {
                continue 'rows;
            }
            key.push(v.clone());
        }
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let first = *e.get();
                if rhs_cols.iter().any(|c| c[i] != c[first]) {
                    return false;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(i);
            }
        }
    }
    true
}

/// Partition-based FD check (mining NULL convention; agrees with
/// [`check_hash`] on NULL-free columns).
pub fn check_partition(table: &Table, lhs: &[AttrId], rhs: &[AttrId]) -> bool {
    fd_holds_partition(table, lhs, rhs)
}

/// Backend-served FD check: same SQL NULL semantics and same answer
/// as [`check_hash`], served through the counting seam. Pass a
/// [`StatsEngine`](dbre_relational::stats::StatsEngine) (which itself
/// implements the trait) and the LHS row grouping is memoized, so a
/// batch of tests sharing one LHS (the shape RHS-Discovery produces)
/// groups once and only rescans the grouped rows.
pub fn check_cached(db: &Database, fd: &Fd, backend: &dyn CountBackend) -> bool {
    backend.fd_holds(db, fd)
}

/// `g3`-style violation count: the minimum number of tuples to delete
/// so that `lhs → rhs` holds. 0 iff the FD holds (SQL NULL semantics:
/// NULL-LHS tuples never violate).
pub fn violations(table: &Table, lhs: &[AttrId], rhs: &[AttrId]) -> usize {
    // Group rows by LHS; within each group, keep the plurality RHS.
    let lhs_cols: Vec<&[Value]> = lhs.iter().map(|a| table.column(*a)).collect();
    let rhs_cols: Vec<&[Value]> = rhs.iter().map(|a| table.column(*a)).collect();
    let mut groups: HashMap<Vec<Value>, HashMap<Vec<Value>, usize>> = HashMap::new();
    let mut considered = 0usize;
    'rows: for i in 0..table.len() {
        let mut key = Vec::with_capacity(lhs_cols.len());
        for c in &lhs_cols {
            let v = &c[i];
            if v.is_null() {
                continue 'rows;
            }
            key.push(v.clone());
        }
        considered += 1;
        let val: Vec<Value> = rhs_cols.iter().map(|c| c[i].clone()).collect();
        *groups.entry(key).or_default().entry(val).or_insert(0) += 1;
    }
    let kept: usize = groups
        .values()
        .map(|rhs_counts| rhs_counts.values().copied().max().unwrap_or(0))
        .sum();
    considered - kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    fn table(rows: &[(i64, i64)]) -> Table {
        Table::from_rows(
            2,
            rows.iter()
                .map(|(x, y)| vec![Value::Int(*x), Value::Int(*y)]),
        )
        .unwrap()
    }

    #[test]
    fn hash_and_partition_agree_without_nulls() {
        let cases: &[&[(i64, i64)]] = &[
            &[(1, 1), (2, 2)],
            &[(1, 1), (1, 2)],
            &[(1, 1), (1, 1), (2, 3)],
            &[],
        ];
        for rows in cases {
            let t = table(rows);
            assert_eq!(
                check_hash(&t, &[a(0)], &[a(1)]),
                check_partition(&t, &[a(0)], &[a(1)]),
                "case {rows:?}"
            );
        }
    }

    #[test]
    fn null_semantics_differ_between_backends() {
        let t = Table::from_rows(
            2,
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Null, Value::Int(2)],
            ],
        )
        .unwrap();
        assert!(check_hash(&t, &[a(0)], &[a(1)]), "SQL: NULL LHS skipped");
        assert!(
            !check_partition(&t, &[a(0)], &[a(1)]),
            "mining: NULL = NULL groups the rows"
        );
    }

    #[test]
    fn violations_count_minimum_deletions() {
        // Group x=1 has y ∈ {1,1,2}: delete 1 row. Group x=2 clean.
        let t = table(&[(1, 1), (1, 1), (1, 2), (2, 5)]);
        assert_eq!(violations(&t, &[a(0)], &[a(1)]), 1);
        let t = table(&[(1, 1), (2, 2)]);
        assert_eq!(violations(&t, &[a(0)], &[a(1)]), 0);
        // Worst case: all same LHS, all distinct RHS.
        let t = table(&[(1, 1), (1, 2), (1, 3)]);
        assert_eq!(violations(&t, &[a(0)], &[a(1)]), 2);
    }

    #[test]
    fn violations_zero_iff_holds() {
        let cases: &[&[(i64, i64)]] = &[&[(1, 1), (2, 2), (1, 1)], &[(1, 1), (1, 2)], &[(3, 7)]];
        for rows in cases {
            let t = table(rows);
            assert_eq!(
                violations(&t, &[a(0)], &[a(1)]) == 0,
                check_hash(&t, &[a(0)], &[a(1)]),
                "case {rows:?}"
            );
        }
    }
}
