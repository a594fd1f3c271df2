//! Column sketches: one column's exact row, NULL and distinct counts,
//! read off its dictionary ([`crate::encode::ColumnDict::sketch`]).
//!
//! Three discovery shortcuts decide a candidate from these counts
//! alone, without building a partition or running an FD probe:
//!
//! * key inference accepts a column as a unary key when it is NULL-free
//!   and every row is distinct ([`ColumnSketch::is_exact_key`]);
//! * key inference skips the test of a column set, at any width from
//!   2 on, whose product of unary distinct counts is below the row
//!   count (pigeonhole);
//! * RHS-Discovery settles every `A → b` at once when the single
//!   attribute `A` is such a key.
//!
//! The counts are exact, so a shortcut only ever skips work whose
//! outcome it has proven: output is identical to running the probes.
//! [`SketchPruneStats`] counts what the shortcuts settled.

/// One column's exact counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSketch {
    rows: usize,
    nulls: usize,
    distinct: usize,
}

impl ColumnSketch {
    /// The counts of a column with `rows` rows (NULLs included), `nulls`
    /// of them NULL, and `distinct` distinct non-NULL values.
    pub(crate) fn new(rows: usize, nulls: usize, distinct: usize) -> ColumnSketch {
        ColumnSketch {
            rows,
            nulls,
            distinct,
        }
    }

    /// Rows of the source column (including NULLs).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// NULL rows of the source column.
    #[inline]
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// The **exact** distinct non-NULL count (`‖r[a]‖`), identical to
    /// what the counting kernels report for the unary projection.
    #[inline]
    pub fn distinct_exact(&self) -> usize {
        self.distinct
    }

    /// **Proof:** the column is NULL-free and every row distinct —
    /// i.e. the unary partition is a key partition. Trivially true for
    /// the empty column, matching `StrippedPartition::is_key`.
    #[inline]
    pub fn is_exact_key(&self) -> bool {
        self.nulls == 0 && self.distinct == self.rows
    }
}

/// Shortcut observability: how many candidates the exact-count
/// shortcuts saw, how many they settled without a probe, how many went
/// on to the probe. Summed across discovery stages into the pipeline
/// stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchPruneStats {
    /// Candidates a shortcut examined.
    pub candidates: u64,
    /// Candidates settled from the counts (no probe ran).
    pub pruned: u64,
    /// Candidates that went on to the probe.
    pub verified: u64,
}

impl SketchPruneStats {
    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &SketchPruneStats) {
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.verified += other.verified;
    }

    /// Did a shortcut examine anything?
    pub fn active(&self) -> bool {
        self.candidates > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_key_proof_matches_partition_semantics() {
        assert!(ColumnSketch::new(10, 0, 10).is_exact_key());
        // Duplicates → 10 rows, fewer distinct.
        assert!(!ColumnSketch::new(10, 0, 9).is_exact_key());
        // NULLs disqualify.
        assert!(!ColumnSketch::new(11, 1, 10).is_exact_key());
        // Empty column: a key partition (no violating pair).
        assert!(ColumnSketch::new(0, 0, 0).is_exact_key());
    }

    #[test]
    fn prune_stats_merge() {
        let mut total = SketchPruneStats::default();
        total.merge(&SketchPruneStats {
            candidates: 10,
            pruned: 6,
            verified: 4,
        });
        total.merge(&SketchPruneStats {
            candidates: 5,
            pruned: 0,
            verified: 5,
        });
        assert_eq!(total.candidates, 15);
        assert_eq!(total.pruned, 6);
        assert_eq!(total.verified, 9);
        assert!(total.active());
        assert!(!SketchPruneStats::default().active());
    }
}
