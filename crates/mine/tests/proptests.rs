//! Property tests: TANE is sound+complete against the naive checker;
//! SPIDER is sound+complete against pairwise inclusion tests; key
//! discovery finds exactly the narrowest unique column sets.
//!
//! The oracles share no kernel with the code under test: FDs are
//! checked by hashing value tuples ([`check_hash`]), keys by counting
//! distinct projected rows, and neither builds a partition.

use dbre_mine::spider::{spider, SpiderConfig};
use dbre_mine::tane::tane;
use dbre_mine::{check_hash, discover_keys, fd_error, infer_missing_keys, violations};
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::database::Database;
use dbre_relational::deps::Ind;
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::table::Table;
use dbre_relational::value::{Domain, Value};
use proptest::prelude::*;
use std::collections::HashSet;

fn small_table(cols: usize, max_rows: usize, card: i64) -> impl Strategy<Value = Table> {
    prop::collection::vec(prop::collection::vec(0..card, cols..=cols), 0..=max_rows).prop_map(
        move |rows| {
            Table::from_rows(
                cols,
                rows.into_iter()
                    .map(|r| r.into_iter().map(Value::Int).collect::<Vec<_>>()),
            )
            .unwrap()
        },
    )
}

/// Up to `max_rows` rows over `cols` columns with values `0..card`; a
/// column flagged in `nullable` holds NULL wherever it would hold 0.
fn nullable_rows(
    cols: usize,
    max_rows: usize,
    card: i64,
) -> impl Strategy<Value = Vec<Vec<Value>>> {
    (
        prop::collection::vec(any::<bool>(), cols),
        prop::collection::vec(prop::collection::vec(0..card, cols), 0..=max_rows),
    )
        .prop_map(|(nullable, rows)| {
            rows.into_iter()
                .map(|r| {
                    r.into_iter()
                        .zip(&nullable)
                        .map(|(v, &n)| {
                            if n && v == 0 {
                                Value::Null
                            } else {
                                Value::Int(v)
                            }
                        })
                        .collect()
                })
                .collect()
        })
}

/// The column bitmasks over `cols` columns of the NULL-free column sets
/// of the smallest width ≤ 3 whose projections are all distinct, by
/// brute force; empty when no such width exists.
fn narrowest_unique_masks(rows: &[Vec<Value>], cols: usize) -> Vec<u32> {
    let null_free = |c: usize| rows.iter().all(|r| !r[c].is_null());
    let unique = |mask: u32| {
        let cols: Vec<usize> = (0..cols).filter(|c| mask & (1 << c) != 0).collect();
        let projected: HashSet<Vec<&Value>> = rows
            .iter()
            .map(|r| cols.iter().map(|&c| &r[c]).collect())
            .collect();
        cols.iter().all(|&c| null_free(c)) && projected.len() == rows.len()
    };
    (1..=3)
        .map(|width| {
            (1u32..1 << cols)
                .filter(|m| m.count_ones() == width && unique(*m))
                .collect::<Vec<u32>>()
        })
        .find(|masks| !masks.is_empty())
        .unwrap_or_default()
}

fn mask_set(mask: u32) -> AttrSet {
    AttrSet::from_indices((0..32u16).filter(|c| mask & (1 << c) != 0))
}

/// Key search over `rows` (`cols` Int columns) against the brute-force
/// oracle: the discovered key is the narrowest unique set with the
/// smallest bitmask, and that is the key `infer_missing_keys`
/// registers.
fn check_narrowest_key(rows: &[Vec<Value>], cols: usize) -> Result<(), TestCaseError> {
    let mut db = Database::new();
    let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
    let attrs: Vec<(&str, Domain)> = names.iter().map(|n| (n.as_str(), Domain::Int)).collect();
    let rel = db.add_relation(Relation::of("R", &attrs)).unwrap();
    for row in rows {
        db.insert(rel, row.clone()).unwrap();
    }
    let masks = narrowest_unique_masks(rows, cols);
    let smallest = masks.iter().min().map(|&m| mask_set(m));
    prop_assert_eq!(discover_keys(db.table(rel), Some(3)).key, smallest);

    // The registered key: narrowest, then smallest bitmask.
    let registered: Vec<(RelId, AttrSet)> = masks
        .iter()
        .min()
        .map(|&m| (rel, mask_set(m)))
        .into_iter()
        .collect();
    prop_assert_eq!(infer_missing_keys(&mut db, Some(3)), registered);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn key_search_finds_the_narrowest_keys(rows in nullable_rows(4, 12, 3)) {
        check_narrowest_key(&rows, 4)?;
    }

    /// Six columns of two values each: width-3 keys are common, and
    /// the colex walk and the prefix memo run past the first
    /// candidates.
    #[test]
    fn key_search_finds_the_narrowest_keys_over_six_columns(rows in nullable_rows(6, 9, 2)) {
        check_narrowest_key(&rows, 6)?;
    }

    #[test]
    fn tane_matches_naive_enumeration(t in small_table(4, 12, 3)) {
        let result = tane(RelId(0), &t, None);
        // Soundness + minimality + completeness over the full lattice.
        for lhs_mask in 0u16..16 {
            for rhs in 0..4u16 {
                if lhs_mask & (1 << rhs) != 0 {
                    continue;
                }
                let lhs: Vec<AttrId> = (0..4u16)
                    .filter(|i| lhs_mask & (1 << i) != 0)
                    .map(AttrId)
                    .collect();
                // NULL-free tables: `check_hash`'s SQL NULL convention
                // agrees with TANE's NULL = NULL.
                let holds = check_hash(&t, &lhs, &[AttrId(rhs)]);
                let minimal = holds
                    && lhs.iter().all(|d| {
                        let smaller: Vec<AttrId> =
                            lhs.iter().copied().filter(|a| a != d).collect();
                        !check_hash(&t, &smaller, &[AttrId(rhs)])
                    });
                let lhs_set = AttrSet::from_iter_ids(lhs.iter().copied());
                let rhs_set = AttrSet::from_indices([rhs]);
                let reported = result
                    .fds
                    .iter()
                    .any(|f| f.lhs == lhs_set && f.rhs == rhs_set);
                prop_assert_eq!(minimal, reported,
                    "lhs={:?} rhs={} holds={}", lhs, rhs, holds);
            }
        }
    }

    #[test]
    fn violations_is_zero_iff_fd_holds(t in small_table(3, 15, 3)) {
        for lhs in 0..3u16 {
            for rhs in 0..3u16 {
                let v = violations(&t, &[AttrId(lhs)], &[AttrId(rhs)]);
                let holds = dbre_mine::check_hash(&t, &[AttrId(lhs)], &[AttrId(rhs)]);
                prop_assert_eq!(v == 0, holds);
                let e = fd_error(&t, &[AttrId(lhs)], &[AttrId(rhs)]);
                prop_assert!((0.0..=1.0).contains(&e));
            }
        }
    }

    #[test]
    fn spider_matches_pairwise_checks(
        a_vals in prop::collection::vec(0i64..6, 0..15),
        b_vals in prop::collection::vec(0i64..6, 0..15),
        c_vals in prop::collection::vec(0i64..6, 0..15),
    ) {
        let mut db = Database::new();
        let rels: Vec<RelId> = ["A", "B", "C"]
            .iter()
            .map(|n| {
                db.add_relation(Relation::of(n, &[("x", Domain::Int)])).unwrap()
            })
            .collect();
        for (rel, vals) in rels.iter().zip([&a_vals, &b_vals, &c_vals]) {
            for &v in vals.iter() {
                db.insert(*rel, vec![Value::Int(v)]).unwrap();
            }
        }
        let result = spider(&db, &SpiderConfig::default());
        for ind in &result.inds {
            prop_assert!(db.ind_holds(ind), "false positive {ind}");
        }
        // Completeness for non-empty columns.
        for &ri in &rels {
            for &rj in &rels {
                if ri == rj {
                    continue;
                }
                if db.table(ri).count_distinct(&[AttrId(0)]) == 0 {
                    continue;
                }
                let ind = Ind::unary(ri, AttrId(0), rj, AttrId(0));
                if db.ind_holds(&ind) {
                    prop_assert!(result.inds.contains(&ind), "missed {ind}");
                }
            }
        }
    }
}
