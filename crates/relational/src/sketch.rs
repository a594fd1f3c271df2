//! Column sketches: the exact sorted distinct-value hashes of a
//! column plus a HyperLogLog estimate, built in one pass from a
//! dictionary and used as a *provably sound* prefilter in front of the
//! exact counting kernels.
//!
//! The discovery loops of the paper are quadratic in candidate pairs
//! (IND-Discovery probes every element of `Q`; SPIDER seeds `n²`
//! unary candidates; key discovery tests every attribute), and every
//! candidate pays for an exact kernel probe. Most candidates in a
//! denormalized legacy schema are *hopeless* — disjoint domains,
//! cardinalities that rule out containment — and a cheap per-column
//! summary can prove that without touching the exact kernels.
//!
//! The contract that keeps pruned output byte-identical to exact-only
//! output: **a sketch may only suppress exact work whose result it can
//! prove.** Two kinds of evidence qualify:
//!
//! * the sorted distinct hashes (`hashes`, one 64-bit hash per
//!   distinct non-NULL value): equal values hash equally, so a hash of
//!   one column absent from the other's array proves the value absent.
//!   If the two arrays share no hash, the intersection is *proven
//!   empty* ([`ColumnSketch::proves_disjoint`]); if a hash of `A` is
//!   missing from `B`, `A ⊆ B` is *refuted*
//!   ([`ColumnSketch::refutes_containment`]). Both proofs walk the
//!   sorted arrays.
//! * the per-column distinct counts are **exact**, not estimated: the
//!   dictionary already knows its cardinality, and the hash array has
//!   one entry per distinct value. Cardinality ordering
//!   (`‖A‖ > ‖B‖ ⇒ A ⊄ B`) is therefore a proof, not a guess.
//!
//! The HyperLogLog estimate is *never* allowed to veto exact work, nor
//! to order anything: it only reports its own error against the exact
//! count (the estimated-vs-exact error in the pipeline stats).
//!
//! Hash soundness: sketches hash whole [`Value`]s with the crate's
//! deterministic [`FxBuildHasher`] (finalized through a strong 64-bit
//! mixer, [`mix64`], because HLL register selection consumes raw bit
//! patterns). `Value`'s `Hash` is consistent with its `Eq` — NaN
//! floats go through `OrdF64`'s total order — so `v₁ == v₂` implies
//! equal hashes under exactly the equality the join kernels use.

use crate::fasthash::FxBuildHasher;
use crate::value::Value;
use std::hash::BuildHasher;

/// Is the sketch prefilter enabled for this process / pipeline run?
///
/// Pruned and unpruned runs produce byte-identical discovery output
/// (the no-false-negative contract above), so the default is on; `off`
/// exists for differential testing and for measuring the exact-only
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SketchMode {
    /// Build sketches and prune provably-hopeless candidates (default).
    #[default]
    On,
    /// Exact-only: never consult sketches.
    Off,
}

impl SketchMode {
    /// Reads `DBRE_SKETCH` (`off` / `0` / `false` / `no` disable;
    /// anything else — including unset — enables).
    pub fn from_env() -> Self {
        match std::env::var("DBRE_SKETCH") {
            Ok(v) => SketchMode::parse(&v).unwrap_or(SketchMode::On),
            Err(_) => SketchMode::On,
        }
    }

    /// Parses a mode name (`on`/`off` and common synonyms).
    pub fn parse(s: &str) -> Option<SketchMode> {
        match s.to_ascii_lowercase().as_str() {
            "on" | "1" | "true" | "yes" => Some(SketchMode::On),
            "off" | "0" | "false" | "no" => Some(SketchMode::Off),
            _ => None,
        }
    }

    /// Is the prefilter enabled?
    #[inline]
    pub fn is_on(self) -> bool {
        self == SketchMode::On
    }

    /// `"on"` / `"off"`.
    pub fn name(self) -> &'static str {
        match self {
            SketchMode::On => "on",
            SketchMode::Off => "off",
        }
    }
}

/// First index `>= from` with `b[idx] >= h`, by exponential search
/// (gallop) from `from` followed by a binary search of the bracketed
/// range. Hashes are uniform, so the next probe usually lands a long
/// way ahead — galloping costs O(log gap) where a linear merge walk
/// would pay the whole gap.
fn lower_bound_from(b: &[u64], from: usize, h: u64) -> usize {
    let mut step = 1;
    let mut lo = from;
    let mut idx = from;
    while idx < b.len() && b[idx] < h {
        lo = idx + 1;
        idx += step;
        step *= 2;
    }
    let hi = idx.min(b.len());
    lo + b[lo..hi].partition_point(|&x| x < h)
}

/// Do two sorted slices share an element? Walks the smaller slice and
/// gallops through the larger, short-circuiting on the first common
/// value.
fn sorted_intersects(a: &[u64], b: &[u64]) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut j = 0;
    for &h in small {
        j = lower_bound_from(large, j, h);
        if j >= large.len() {
            return false;
        }
        if large[j] == h {
            return true;
        }
    }
    false
}

/// Is every element of sorted `a` present in sorted `b`? Gallops
/// through `b`, short-circuiting on the first element of `a` that `b`
/// lacks.
fn sorted_subset(a: &[u64], b: &[u64]) -> bool {
    let mut j = 0;
    for &h in a {
        j = lower_bound_from(b, j, h);
        if j >= b.len() || b[j] != h {
            return false;
        }
        j += 1;
    }
    true
}

/// SplitMix64 finalizer: full-avalanche 64-bit mixing. The Fx hash is
/// fast but weak in its low bits; HLL register selection needs every
/// bit to be unbiased.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The sketch hash of a value: deterministic (unkeyed FxHasher), equal
/// for equal `Value`s, mixed for bit quality. NULL never reaches the
/// sketches (dictionaries track NULLs separately), but hashing it is
/// well-defined anyway.
#[inline]
pub fn value_hash(v: &Value) -> u64 {
    mix64(FxBuildHasher::default().hash_one(v))
}

/// HLL precision: `m = 2^12 = 4096` registers, standard error
/// `1.04/√m ≈ 1.6%`.
const HLL_P: u32 = 12;
const HLL_M: usize = 1 << HLL_P;

/// A HyperLogLog distinct-count estimator (p = 12).
///
/// Estimation only — exact cardinalities come from the dictionary.
/// The estimator exists for the estimated-vs-exact error metric the
/// pipeline reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Hll {
    registers: Box<[u8]>,
}

impl Default for Hll {
    fn default() -> Self {
        Hll::new()
    }
}

impl Hll {
    /// An empty estimator.
    pub fn new() -> Self {
        Hll {
            registers: vec![0u8; HLL_M].into_boxed_slice(),
        }
    }

    /// Observes one (pre-mixed) hash.
    #[inline]
    pub fn insert(&mut self, h: u64) {
        let idx = (h >> (64 - HLL_P)) as usize;
        let rest = h << HLL_P;
        // Rank of the leftmost 1-bit in the remaining 52 bits (1-based,
        // capped when they are all zero).
        let rho = (rest.leading_zeros().min(64 - HLL_P) + 1) as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// The cardinality estimate (raw HLL with the small-range
    /// linear-counting correction; the 64-bit-hash large-range
    /// correction is unnecessary).
    pub fn estimate(&self) -> f64 {
        let m = HLL_M as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in self.registers.iter() {
            sum += 1.0 / (1u64 << r) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

/// One column's sketch: exact sorted distinct hashes plus the HLL
/// estimate derived from them.
///
/// Built from a dictionary's decode table (one hash per *distinct*
/// non-NULL value — O(cardinality), not O(rows)), or rebuilt from
/// persisted hashes on the spill-cache load path
/// ([`ColumnSketch::from_hashes`]). Both constructions are
/// deterministic functions of the hash sequence, so a round-tripped
/// sketch equals the freshly built one.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSketch {
    rows: usize,
    nulls: usize,
    /// One [`value_hash`] per distinct non-NULL value, **sorted**, so
    /// the proofs are merge walks over two arrays.
    hashes: Vec<u64>,
    hll: Hll,
}

impl ColumnSketch {
    /// Builds from a dictionary's distinct values. `rows` counts all
    /// rows of the source column including NULLs.
    pub fn build(values: &[Value], nulls: usize, rows: usize) -> ColumnSketch {
        let hashes: Vec<u64> = values.iter().map(value_hash).collect();
        ColumnSketch::from_hashes(rows, nulls, hashes)
    }

    /// Rebuilds from persisted hashes (spill-cache load). Equals
    /// [`ColumnSketch::build`] over the originating values — sorting
    /// here makes the result canonical regardless of input order.
    pub fn from_hashes(rows: usize, nulls: usize, mut hashes: Vec<u64>) -> ColumnSketch {
        hashes.sort_unstable();
        let mut hll = Hll::new();
        for &h in &hashes {
            hll.insert(h);
        }
        ColumnSketch {
            rows,
            nulls,
            hashes,
            hll,
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
        self.hashes.len()
    }

    /// The HLL estimate of the distinct count — observability only,
    /// never a pruning proof.
    #[inline]
    pub fn distinct_estimate(&self) -> f64 {
        self.hll.estimate()
    }

    /// Relative HLL error against the exact count:
    /// `|est − exact| / max(exact, 1)`.
    pub fn estimate_error(&self) -> f64 {
        let exact = self.distinct_exact() as f64;
        (self.distinct_estimate() - exact).abs() / exact.max(1.0)
    }

    /// The persisted form: one hash per distinct value, sorted.
    #[inline]
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// **Proof:** the column is NULL-free and every row distinct —
    /// i.e. the unary partition is a key partition. (Exact counts, not
    /// estimates; trivially true for the empty column, matching
    /// `StrippedPartition::is_key`.)
    #[inline]
    pub fn is_exact_key(&self) -> bool {
        self.nulls == 0 && self.hashes.len() == self.rows
    }

    /// **Proof:** the two columns' value sets are disjoint
    /// (`N_kl = 0`). The sorted hash arrays share no element — equal
    /// values hash equally, so empty hash intersection implies empty
    /// value intersection. The walk gallops the smaller array through
    /// the larger and short-circuits on the first shared hash.
    pub fn proves_disjoint(&self, other: &ColumnSketch) -> bool {
        !sorted_intersects(&self.hashes, &other.hashes)
    }

    /// **Proof:** `self ⊄ other` — either the exact cardinalities
    /// forbid it (`‖self‖ > ‖other‖`), or some value of `self` hashes
    /// to nothing in `other` (values present in `other` always land in
    /// its hash set, so an absent hash is an absent value). One-sided:
    /// `true` is always a proof; `false` just means "verify exactly".
    ///
    /// Only a bounded prefix of `self`'s hashes is checked. Hash order
    /// is value-blind, so a genuinely non-contained column trips on
    /// one of its first few hashes with overwhelming probability; once
    /// a walk has confirmed [`REFUTE_CAP`](Self::REFUTE_CAP) hashes
    /// the candidate is almost certainly a real containment, and
    /// walking the rest would only duplicate the exact kernel this
    /// candidate is headed for anyway.
    pub fn refutes_containment(&self, other: &ColumnSketch) -> bool {
        if self.hashes.len() > other.hashes.len() {
            return true;
        }
        let prefix = &self.hashes[..self.hashes.len().min(Self::REFUTE_CAP)];
        !sorted_subset(prefix, &other.hashes)
    }

    /// How many of `self`'s hashes [`Self::refutes_containment`]
    /// checks before giving up and deferring to the exact kernel.
    pub const REFUTE_CAP: usize = 64;
}

/// Prefilter observability: how many candidates the sketches saw, how
/// many they pruned with a proof, how many went on to exact
/// verification — plus the accumulated HLL-vs-exact distinct error
/// over the columns consulted. Summed across discovery stages into the
/// pipeline stats and the bench report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SketchPruneStats {
    /// Candidates the prefilter examined.
    pub candidates: u64,
    /// Candidates eliminated by a sketch proof (no exact kernel ran).
    pub pruned: u64,
    /// Candidates that survived and were exactly verified.
    pub verified: u64,
    /// Sum of per-column relative HLL error (`estimate_error`).
    pub est_error_sum: f64,
    /// Columns contributing to `est_error_sum`.
    pub est_error_cols: u64,
}

impl SketchPruneStats {
    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &SketchPruneStats) {
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.verified += other.verified;
        self.est_error_sum += other.est_error_sum;
        self.est_error_cols += other.est_error_cols;
    }

    /// Records one consulted column's estimate error.
    pub fn observe_column(&mut self, sketch: &ColumnSketch) {
        self.est_error_sum += sketch.estimate_error();
        self.est_error_cols += 1;
    }

    /// Mean relative HLL error over the consulted columns.
    pub fn mean_distinct_error(&self) -> f64 {
        if self.est_error_cols == 0 {
            0.0
        } else {
            self.est_error_sum / self.est_error_cols as f64
        }
    }

    /// Did the prefilter run at all?
    pub fn active(&self) -> bool {
        self.candidates > 0 || self.est_error_cols > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::Int).collect()
    }

    #[test]
    fn value_hash_is_deterministic_and_eq_consistent() {
        use crate::value::OrdF64;
        assert_eq!(value_hash(&Value::Int(42)), value_hash(&Value::Int(42)));
        assert_ne!(value_hash(&Value::Int(42)), value_hash(&Value::Int(43)));
        // Same-payload NaNs are equal Values, so they must share a hash.
        let nan1 = Value::Float(OrdF64(f64::NAN));
        let nan2 = Value::Float(OrdF64(f64::NAN));
        assert_eq!(nan1, nan2);
        assert_eq!(value_hash(&nan1), value_hash(&nan2));
    }

    #[test]
    fn hll_estimates_within_tolerance() {
        for &n in &[100usize, 1_000, 20_000] {
            let mut hll = Hll::new();
            for i in 0..n {
                hll.insert(value_hash(&Value::Int(i as i64)));
            }
            let est = hll.estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.08, "n={n} est={est} err={err}");
        }
    }

    #[test]
    fn disjointness_proof_is_sound_and_useful() {
        let a = ColumnSketch::build(&ints(0..2_000), 0, 2_000);
        let b = ColumnSketch::build(&ints(1_000_000..1_002_000), 0, 2_000);
        let c = ColumnSketch::build(&ints(1_500..3_500), 0, 2_000);
        // Disjoint ranges: provable (overwhelmingly likely with 2k keys;
        // deterministic hashes make this a fixed fact, not a flake).
        assert!(a.proves_disjoint(&b));
        assert!(b.proves_disjoint(&a));
        // Overlapping ranges must never be "proven" disjoint.
        assert!(!a.proves_disjoint(&c));
        assert!(!c.proves_disjoint(&a));
        // Empty column: trivially disjoint from anything.
        let empty = ColumnSketch::build(&[], 0, 0);
        assert!(empty.proves_disjoint(&a));
    }

    #[test]
    fn containment_refutation_is_sound() {
        let small = ColumnSketch::build(&ints(0..100), 0, 100);
        let big = ColumnSketch::build(&ints(0..1_000), 0, 1_000);
        // small ⊆ big truly holds: must never be refuted.
        assert!(!small.refutes_containment(&big));
        // big ⊄ small: refuted by cardinality alone.
        assert!(big.refutes_containment(&small));
        // Shifted set of equal size: refuted by a missing hash.
        let shifted = ColumnSketch::build(&ints(50..150), 0, 100);
        assert!(shifted.refutes_containment(&small));
    }

    #[test]
    fn galloped_walks_match_naive_set_semantics() {
        // Deterministic LCG over skewed/balanced size mixes: the
        // galloped lower-bound walks must agree with the obvious
        // HashSet answers on every shape (empty, tiny vs huge, equal,
        // off-by-one boundaries).
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state % bound
        };
        for (na, nb) in [
            (0, 0),
            (0, 9),
            (1, 1),
            (3, 1000),
            (1000, 3),
            (64, 64),
            (500, 700),
        ] {
            for round in 0..8u64 {
                let bound = 1 + (round % 4) * 400 + 5;
                let mut a: Vec<u64> = (0..na).map(|_| next(bound)).collect();
                let mut b: Vec<u64> = (0..nb).map(|_| next(bound)).collect();
                a.sort_unstable();
                a.dedup();
                b.sort_unstable();
                b.dedup();
                let sa: std::collections::HashSet<u64> = a.iter().copied().collect();
                let sb: std::collections::HashSet<u64> = b.iter().copied().collect();
                assert_eq!(
                    sorted_intersects(&a, &b),
                    !sa.is_disjoint(&sb),
                    "intersects a={a:?} b={b:?}"
                );
                assert_eq!(
                    sorted_subset(&a, &b),
                    sa.is_subset(&sb),
                    "subset a={a:?} b={b:?}"
                );
            }
        }
    }

    #[test]
    fn from_hashes_round_trips_build() {
        let values = ints(0..500);
        let built = ColumnSketch::build(&values, 3, 503);
        let reloaded = ColumnSketch::from_hashes(503, 3, built.hashes().to_vec());
        assert_eq!(built, reloaded);
        assert_eq!(reloaded.distinct_exact(), 500);
        assert_eq!(reloaded.null_count(), 3);
    }

    #[test]
    fn exact_key_proof_matches_partition_semantics() {
        assert!(ColumnSketch::build(&ints(0..10), 0, 10).is_exact_key());
        // Duplicates → 10 rows, fewer distinct.
        assert!(!ColumnSketch::build(&ints(0..9), 0, 10).is_exact_key());
        // NULLs disqualify.
        assert!(!ColumnSketch::build(&ints(0..10), 1, 11).is_exact_key());
        // Empty column: a key partition (no violating pair).
        assert!(ColumnSketch::build(&[], 0, 0).is_exact_key());
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(SketchMode::parse("on"), Some(SketchMode::On));
        assert_eq!(SketchMode::parse("OFF"), Some(SketchMode::Off));
        assert_eq!(SketchMode::parse("0"), Some(SketchMode::Off));
        assert_eq!(SketchMode::parse("bogus"), None);
        assert!(SketchMode::On.is_on());
        assert_eq!(SketchMode::Off.name(), "off");
    }

    #[test]
    fn prune_stats_merge_and_error() {
        let mut total = SketchPruneStats::default();
        total.merge(&SketchPruneStats {
            candidates: 10,
            pruned: 6,
            verified: 4,
            est_error_sum: 0.02,
            est_error_cols: 2,
        });
        total.merge(&SketchPruneStats {
            candidates: 5,
            pruned: 0,
            verified: 5,
            est_error_sum: 0.04,
            est_error_cols: 1,
        });
        assert_eq!(total.candidates, 15);
        assert_eq!(total.pruned, 6);
        assert_eq!(total.verified, 9);
        assert!((total.mean_distinct_error() - 0.02).abs() < 1e-12);
        assert!(total.active());
        assert!(!SketchPruneStats::default().active());
    }
}
