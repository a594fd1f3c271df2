//! TANE-style levelwise discovery of all minimal functional
//! dependencies of a relation (Huhtala, Kärkkäinen, Porkka, Toivonen).
//!
//! This is the *blind mining* baseline the paper argues against: it
//! finds every FD that holds in the extension — including accidental
//! ones like `zip-code → state` — whereas the paper's RHS-Discovery
//! only tests the handful of candidates that program navigation
//! suggests. Benchmarks X2/X3 compare the two on work done and on the
//! usefulness of what they return.
//!
//! Attribute sets are `u64` bitmasks (≤ 64 attributes per relation,
//! ample for legacy schemas). Pruning follows the original paper:
//! RHS-candidate sets `C⁺(X)`, key pruning, and the minimality rule.

use crate::partitions::StrippedPartition;
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::bufpool::BufferPool;
use dbre_relational::deps::Fd;
use dbre_relational::schema::RelId;
use dbre_relational::table::Table;
use std::collections::{HashMap, HashSet};

/// Discovery statistics, used by the comparison benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaneStats {
    /// Number of FD validity tests performed (partition comparisons).
    pub fd_checks: usize,
    /// Number of partition products computed.
    pub partition_products: usize,
    /// Number of candidate sets materialized across all levels.
    pub candidates: usize,
}

/// Result of a TANE run: all minimal FDs plus statistics.
#[derive(Debug, Clone)]
pub struct TaneResult {
    /// Minimal FDs `X → a` (singleton right-hand sides).
    pub fds: Vec<Fd>,
    /// Work counters.
    pub stats: TaneStats,
}

/// Runs TANE on a table, reporting FDs against `rel` with attribute ids
/// `0..arity`. `max_lhs` bounds the LHS size (levels); `None` explores
/// the full lattice.
pub fn tane(rel: RelId, table: &Table, max_lhs: Option<usize>) -> TaneResult {
    let n = table.arity();
    assert!(n <= 64, "TANE supports at most 64 attributes");
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut stats = TaneStats::default();

    // Level-1 partitions from the columns' codes: each is an
    // array-bucket sweep over the code domain instead of a
    // `Value`-hashing pass per column.
    let pool = BufferPool::with_capacity_pages(1);
    let mut partitions: HashMap<u64, StrippedPartition> = HashMap::new();
    partitions.insert(0, StrippedPartition::single_class(table.len()));
    for i in 0..n {
        partitions.insert(
            1 << i,
            crate::keys::unary_partition(table, AttrId(i as u16), &pool),
        );
    }

    // C⁺(∅) = R.
    let mut cplus: HashMap<u64, u64> = HashMap::new();
    cplus.insert(0, full);

    let mut level: Vec<u64> = (0..n).map(|i| 1u64 << i).collect();
    let mut fds: Vec<Fd> = Vec::new();
    let mut level_no = 1usize;

    while !level.is_empty() {
        // Compute C⁺ for this level.
        for &x in &level {
            let mut c = full;
            for a in bits(x) {
                let sub = x & !(1 << a);
                c &= *cplus.get(&sub).unwrap_or(&full);
            }
            cplus.insert(x, c);
            stats.candidates += 1;
        }

        // Dependency computation.
        for &x in &level {
            let candidates = cplus[&x] & x;
            for a in bits(candidates) {
                let lhs_mask = x & !(1 << a);
                // Validity: e(π_lhs) == e(π_x).
                let e_lhs = partitions[&lhs_mask].error();
                let e_x = partitions[&x].error();
                stats.fd_checks += 1;
                if e_lhs == e_x {
                    fds.push(Fd::new(
                        rel,
                        mask_to_set(lhs_mask),
                        AttrSet::single(AttrId(a as u16)),
                    ));
                    // Prune: a is determined, remove from C⁺(X)…
                    let c = cplus.get_mut(&x).expect("inserted above");
                    *c &= !(1 << a);
                    // …and every b ∉ X.
                    *c &= x;
                }
            }
        }

        // Key pruning + empty-C⁺ pruning.
        let current = std::mem::take(&mut level);
        for x in current {
            if cplus[&x] == 0 {
                continue;
            }
            if partitions[&x].is_key() {
                // All remaining candidates of a key are implied; emit
                // X → a for a ∈ C⁺(X)\X then prune the node.
                for a in bits(cplus[&x] & !x) {
                    // TANE key rule: emit X → a iff
                    // a ∈ ∩_{b∈X} C⁺(X ∪ {a} \ {b}); C⁺ of pruned or
                    // never-generated sets is computed on demand.
                    let minimal = bits(x).all(|b| {
                        let alt = (x & !(1 << b)) | (1 << a);
                        cplus_of(&mut cplus, alt, full) & (1 << a) != 0
                    });
                    if minimal {
                        fds.push(Fd::new(
                            rel,
                            mask_to_set(x),
                            AttrSet::single(AttrId(a as u16)),
                        ));
                    }
                }
                continue;
            }
            level.push(x);
        }

        if let Some(maxl) = max_lhs {
            if level_no >= maxl {
                break;
            }
        }

        // Generate next level (prefix join) and its partitions.
        let mut next: Vec<u64> = Vec::new();
        let level_set: HashSet<u64> = level.iter().copied().collect();
        let mut generated: HashSet<u64> = HashSet::new();
        for i in 0..level.len() {
            for j in i + 1..level.len() {
                let (x, y) = (level[i], level[j]);
                // Join only sets sharing all but the last attribute,
                // each set once however many pairs generate it.
                let merged = x | y;
                if merged.count_ones() != x.count_ones() + 1 || !generated.insert(merged) {
                    continue;
                }
                // All |merged|-1 subsets must be in the current level.
                if !bits(merged).all(|a| level_set.contains(&(merged & !(1 << a)))) {
                    continue;
                }
                next.push(merged);
                // Partition for the new node via product of two subsets.
                let p = partitions[&x].product(&partitions[&y]);
                stats.partition_products += 1;
                partitions.insert(merged, p);
            }
        }
        next.sort_unstable();

        level = next;
        level_no += 1;
        // The validity check of the next level reads widths
        // `level_no - 1` and `level_no` only: free the narrower ones.
        partitions.retain(|&mask, _| mask.count_ones() as usize + 1 >= level_no);
    }

    fds.sort();
    TaneResult { fds, stats }
}

/// `C⁺(mask)` with on-demand recursive computation for sets that were
/// pruned before materialization: `C⁺(Y) = ∩_{a∈Y} C⁺(Y\{a})`.
fn cplus_of(cplus: &mut HashMap<u64, u64>, mask: u64, full: u64) -> u64 {
    if let Some(&c) = cplus.get(&mask) {
        return c;
    }
    let mut c = full;
    for a in bits(mask) {
        c &= cplus_of(cplus, mask & !(1 << a), full);
    }
    cplus.insert(mask, c);
    c
}

/// Iterates set bit positions of a mask.
fn bits(mask: u64) -> impl Iterator<Item = u32> {
    let mut m = mask;
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let b = m.trailing_zeros();
            m &= m - 1;
            Some(b)
        }
    })
}

fn mask_to_set(mask: u64) -> AttrSet {
    AttrSet::from_iter_ids(bits(mask).map(|b| AttrId(b as u16)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitions::fd_holds_partition;
    use dbre_relational::value::Value;

    const R: RelId = RelId(0);

    fn table(rows: &[&[i64]]) -> Table {
        let arity = rows.first().map_or(0, |r| r.len());
        Table::from_rows(
            arity,
            rows.iter()
                .map(|r| r.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>()),
        )
        .unwrap()
    }

    fn fd(lhs: &[u16], rhs: u16) -> Fd {
        Fd::new(
            R,
            AttrSet::from_indices(lhs.iter().copied()),
            AttrSet::from_indices([rhs]),
        )
    }

    #[test]
    fn discovers_simple_chain() {
        // x -> y (x unique per y), y -> z.
        let t = table(&[&[1, 10, 100], &[2, 10, 100], &[3, 20, 200], &[4, 20, 200]]);
        let result = tane(R, &t, None);
        assert!(result.fds.contains(&fd(&[1], 2)), "y -> z expected");
        assert!(result.fds.contains(&fd(&[0], 1)), "x -> y expected");
        assert!(result.fds.contains(&fd(&[0], 2)) || result.fds.contains(&fd(&[1], 2)));
        // y -/-> x.
        assert!(!result.fds.contains(&fd(&[1], 0)));
    }

    #[test]
    fn all_reported_fds_hold_and_are_minimal() {
        let t = table(&[
            &[1, 1, 2, 0],
            &[1, 1, 2, 0],
            &[2, 1, 3, 1],
            &[3, 2, 3, 1],
            &[4, 2, 2, 0],
        ]);
        let result = tane(R, &t, None);
        for f in &result.fds {
            let lhs: Vec<AttrId> = f.lhs.iter().collect();
            let rhs: Vec<AttrId> = f.rhs.iter().collect();
            assert!(
                fd_holds_partition(&t, &lhs, &rhs),
                "reported FD does not hold: {f:?}"
            );
            // Minimality: every strict subset of the LHS fails.
            for drop in &lhs {
                let smaller: Vec<AttrId> = lhs.iter().copied().filter(|a| a != drop).collect();
                assert!(
                    !fd_holds_partition(&t, &smaller, &rhs),
                    "FD not minimal: {f:?}"
                );
            }
        }
    }

    #[test]
    fn finds_composite_lhs_dependencies() {
        // (x, y) -> z but neither x -> z nor y -> z.
        let t = table(&[&[1, 1, 7], &[1, 2, 8], &[2, 1, 9], &[2, 2, 7], &[1, 1, 7]]);
        let result = tane(R, &t, None);
        assert!(result.fds.contains(&fd(&[0, 1], 2)));
        assert!(!result.fds.contains(&fd(&[0], 2)));
        assert!(!result.fds.contains(&fd(&[1], 2)));
    }

    #[test]
    fn completeness_against_exhaustive_check() {
        // Every minimal FD that holds must be reported.
        let t = table(&[
            &[1, 10, 5],
            &[2, 10, 5],
            &[3, 20, 5],
            &[4, 20, 6],
            &[5, 30, 6],
        ]);
        let result = tane(R, &t, None);
        for lhs_mask in 0u8..8 {
            for rhs in 0..3u16 {
                if lhs_mask & (1 << rhs) != 0 {
                    continue;
                }
                let lhs: Vec<AttrId> = (0..3u16)
                    .filter(|i| lhs_mask & (1 << i) != 0)
                    .map(AttrId)
                    .collect();
                let holds = fd_holds_partition(&t, &lhs, &[AttrId(rhs)]);
                let minimal = holds
                    && lhs.iter().all(|drop| {
                        let smaller: Vec<AttrId> =
                            lhs.iter().copied().filter(|a| a != drop).collect();
                        !fd_holds_partition(&t, &smaller, &[AttrId(rhs)])
                    });
                let lhs_set = AttrSet::from_iter_ids(lhs.iter().copied());
                let reported = result
                    .fds
                    .iter()
                    .any(|f| f.lhs == lhs_set && f.rhs == AttrSet::from_indices([rhs]));
                assert_eq!(
                    minimal, reported,
                    "mismatch for {lhs:?} -> {rhs} (holds={holds})"
                );
            }
        }
    }

    #[test]
    fn max_lhs_bounds_levels() {
        let t = table(&[&[1, 1, 7], &[1, 2, 8], &[2, 1, 9], &[2, 2, 7]]);
        let result = tane(R, &t, Some(1));
        assert!(result.fds.iter().all(|f| f.lhs.len() <= 1));
    }

    #[test]
    fn empty_and_single_row_tables() {
        let t = Table::new(3);
        let result = tane(R, &t, None);
        // Everything holds vacuously; minimal FDs are ∅ -> a.
        assert!(result.fds.iter().all(|f| f.lhs.is_empty()));
        let t = table(&[&[1, 2, 3]]);
        let result = tane(R, &t, None);
        assert!(result.fds.iter().all(|f| f.lhs.is_empty()));
        assert_eq!(result.fds.len(), 3);
    }

    #[test]
    fn constant_column_yields_empty_lhs_fd() {
        let t = table(&[&[1, 9], &[2, 9], &[3, 9]]);
        let result = tane(R, &t, None);
        assert!(result.fds.contains(&fd(&[], 1)));
        assert!(!result.fds.contains(&fd(&[], 0)));
    }

    #[test]
    fn stats_are_populated() {
        let t = table(&[&[1, 1, 7], &[1, 2, 8], &[2, 1, 9], &[2, 2, 7]]);
        let result = tane(R, &t, None);
        assert!(result.stats.fd_checks > 0);
        assert!(result.stats.candidates > 0);
    }
}
