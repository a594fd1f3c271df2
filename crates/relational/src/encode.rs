//! Dictionary-encoded columns: integer-code kernels for `‖·‖` counting,
//! joins, and partitions.
//!
//! Every statistic the paper's algorithms consume — distinct
//! projections for the three IND-Discovery cardinalities, LHS groups
//! for the `A → b` extension tests, stripped partitions for the mining
//! baselines — reduces to hashing and comparing projected tuples. The
//! `Value`-based primitives in [`crate::counting`] and
//! [`crate::partitions`] pay for that with a heap-allocated
//! `Vec<Value>` clone per row. This module removes that cost: each
//! column's values are interned once into dense `u32` codes
//! (first-occurrence order, with **code 0 reserved for `NULL`**), and
//! every kernel afterwards runs on plain integers hashed with the
//! cheap [`crate::fasthash`] scheme.
//!
//! The unit of encoding is the **column** ([`ColumnDict`]), not the
//! table: a probe that touches two attributes of a 13-column relation
//! pays for exactly two dictionary builds. The kernels are free
//! functions over `&[&ColumnDict]` slices, so callers can mix columns
//! cached at different times ([`crate::stats::StatsEngine`] caches one
//! dictionary per `(relation, attribute)` generation). [`DictTable`]
//! bundles one `Arc<ColumnDict>` per attribute for whole-table
//! consumers (TANE, SPIDER, key discovery) and forwards every kernel.
//!
//! Consequences of the encoding:
//!
//! * a unary `COUNT(DISTINCT a)` is the dictionary cardinality — `O(1)`
//!   after the build;
//! * a unary stripped partition is an array-bucket pass over the code
//!   domain, no hashing at all;
//! * a two-attribute projection key packs into a single `u64`
//!   (`hi << 32 | lo`), wider ones into a `Box<[u32]>` — no `Value`
//!   clones on any hot path;
//! * join intersections translate left codes to right codes through a
//!   per-position lookup table (codes are column-local), then probe
//!   integer sets.
//!
//! NULL conventions are preserved exactly: the SQL kernels
//! ([`count_distinct_cols`], [`distinct_codes_cols`],
//! [`fd_holds_cols`], [`lhs_groups_cols`]) skip rows whose projection
//! touches code 0, while the mining kernels ([`partition1_col`],
//! [`partition_cols`]) treat code 0 as an ordinary value equal to
//! itself, mirroring [`crate::partitions`]. `NaN` floats intern
//! through [`crate::value::OrdF64`]'s total order, so two NaNs with
//! the same payload share a code exactly when the `Value` kernels
//! consider them equal.
//!
//! A `ColumnDict` is immutable after [`ColumnDict::build`]; sharing
//! one read-only across [`crate::par::par_map`] workers is safe
//! (`Sync` by construction, no interior mutability). Lifecycle
//! management — building once per table generation and invalidating on
//! mutation — lives in [`crate::stats::StatsEngine`].

use crate::attr::AttrId;
use crate::counting::JoinStats;
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::partitions::StrippedPartition;
use crate::sketch::ColumnSketch;
use crate::table::{ProjKey, Table};
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// The NULL sentinel code: row positions holding SQL `NULL` encode to
/// 0 in every [`ColumnDict`]; real values start at 1.
pub const NULL_CODE: u32 = 0;

/// One column's dictionary: per-row dense codes plus both decode
/// (code → value) and encode (value → code) directions.
///
/// Equality compares every *data* field — two dictionaries are equal
/// iff they were built from the same cell sequence (codes are assigned
/// in first-occurrence order, so the decode table is canonical), which
/// is what the streaming-vs-materialized differential tests pin. The
/// lazily attached sketch is a pure derivation of those fields and is
/// excluded from equality.
#[derive(Debug, Clone, Default)]
pub struct ColumnDict {
    /// Per-row codes; `codes[i] == NULL_CODE` iff row `i` is NULL.
    codes: Vec<u32>,
    /// Decode table: `values[(c - 1) as usize]` is the value of code
    /// `c ≥ 1`. Codes are assigned in first-occurrence order.
    values: Vec<Value>,
    /// Encode table (no entry for NULL).
    index: FxHashMap<Value, u32>,
    /// Number of NULL rows.
    nulls: usize,
    /// Per-code occurrence counts: `counts[c]` is how many rows carry
    /// code `c` (`counts[0]` = NULL rows). Maintained by the interning
    /// loop, so the counting-sort kernels skip their sizes pass.
    counts: Vec<u64>,
    /// Lazily built column sketch ([`ColumnDict::sketch`]); `None`
    /// once initialized means the dictionary is not sketchable (counts
    /// invariant broken).
    sketch: OnceLock<Option<Arc<ColumnSketch>>>,
}

impl PartialEq for ColumnDict {
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes
            && self.values == other.values
            && self.index == other.index
            && self.nulls == other.nulls
            && self.counts == other.counts
    }
}

/// Incremental column interner: the streaming half of
/// [`ColumnDict::build`].
///
/// Chunked ingest ([`crate::csv`] → [`crate::pages`]) cannot hand a
/// whole column slice to `build`; it interns one cell at a time as
/// records arrive and appends the resulting codes straight to a spill
/// file. The builder carries exactly the state `build`'s loop carries —
/// decode/encode tables, NULL and per-code counts — so
/// [`DictBuilder::finish_slim`] yields a dictionary byte-identical to
/// `build(column).slim()` for the same cell sequence.
#[derive(Debug, Default)]
pub struct DictBuilder {
    values: Vec<Value>,
    index: FxHashMap<Value, u32>,
    nulls: usize,
    counts: Vec<u64>,
    rows: usize,
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        DictBuilder {
            counts: vec![0],
            ..DictBuilder::default()
        }
    }

    /// An empty builder presized for roughly `rows` incoming cells.
    pub fn with_row_capacity(rows: usize) -> Self {
        DictBuilder {
            // Worst case (all-distinct key columns) is common enough in
            // the paper's workloads to pre-size for; low-cardinality
            // columns briefly over-reserve and release on drop.
            index: FxHashMap::with_capacity_and_hasher(rows / 2, Default::default()),
            counts: vec![0],
            ..DictBuilder::default()
        }
    }

    /// Interns one cell, returning its code ([`NULL_CODE`] for NULL).
    /// Clones `v` only on first occurrence.
    #[inline]
    pub fn intern(&mut self, v: &Value) -> u32 {
        self.rows += 1;
        if v.is_null() {
            self.nulls += 1;
            self.counts[NULL_CODE as usize] += 1;
            return NULL_CODE;
        }
        let next = self.values.len() as u32 + 1;
        let code = match self.index.entry(v.clone()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.values.push(v.clone());
                self.counts.push(0);
                *e.insert(next)
            }
        };
        self.counts[code as usize] += 1;
        code
    }

    /// Number of cells interned so far.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of distinct non-NULL values interned so far.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// Finishes into a codes-free (slim) dictionary — the resident
    /// half of a spilled column (see [`ColumnDict::slim`]).
    pub fn finish_slim(self) -> ColumnDict {
        ColumnDict {
            codes: Vec::new(),
            values: self.values,
            index: self.index,
            nulls: self.nulls,
            counts: self.counts,
            sketch: OnceLock::new(),
        }
    }
}

impl ColumnDict {
    /// Interns one column. The only `Value` clones are one per
    /// *distinct* value (into the decode and encode tables), never per
    /// row.
    pub fn build(column: &[Value]) -> Self {
        let mut b = DictBuilder::with_row_capacity(column.len());
        let mut codes = Vec::with_capacity(column.len());
        for v in column {
            codes.push(b.intern(v));
        }
        let mut dict = b.finish_slim();
        dict.codes = codes;
        dict
    }

    /// Number of distinct non-NULL values — the unary
    /// `COUNT(DISTINCT ·)` in `O(1)`.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// Does the column contain any NULL?
    #[inline]
    pub fn has_null(&self) -> bool {
        self.nulls > 0
    }

    /// Number of NULL rows.
    #[inline]
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// The per-row code slice (0 = NULL).
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of rows the column was built from.
    #[inline]
    pub fn rows(&self) -> usize {
        self.codes.len()
    }

    /// The code of `v` in this column, or [`NULL_CODE`] when `v` is
    /// NULL or absent from the column.
    #[inline]
    pub fn code_of(&self, v: &Value) -> u32 {
        self.index.get(v).copied().unwrap_or(NULL_CODE)
    }

    /// Decodes a non-NULL code back into its value.
    #[inline]
    pub fn value_of(&self, code: u32) -> Option<&Value> {
        if code == NULL_CODE {
            None
        } else {
            self.values.get(code as usize - 1)
        }
    }

    /// The distinct non-NULL values, in first-occurrence (code) order.
    #[inline]
    pub fn distinct_values(&self) -> &[Value] {
        &self.values
    }

    /// Per-code occurrence counts: `counts()[c]` is how many rows of
    /// the source column carry code `c`, with `counts()[0]` the NULL
    /// count. Length is `cardinality() + 1` for any dictionary built
    /// through [`ColumnDict::build`] / [`DictBuilder`]; kernels treat
    /// any other length as "counts unavailable" and fall back to a
    /// counting pass.
    #[inline]
    pub fn code_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reassembles a slim dictionary from its serialized parts — the
    /// spill-cache load path ([`crate::pages`]). The encode index is
    /// rebuilt from the decode table; `counts` must follow the
    /// [`ColumnDict::code_counts`] convention.
    pub fn from_parts(values: Vec<Value>, nulls: usize, counts: Vec<u64>) -> ColumnDict {
        let mut index = FxHashMap::with_capacity_and_hasher(values.len(), Default::default());
        for (i, v) in values.iter().enumerate() {
            index.insert(v.clone(), i as u32 + 1);
        }
        ColumnDict {
            codes: Vec::new(),
            values,
            index,
            nulls,
            counts,
            sketch: OnceLock::new(),
        }
    }

    /// [`ColumnDict::from_parts`] with a sketch preseeded from
    /// persisted hashes — the spill-cache load path, which would
    /// otherwise rehash every distinct value to rebuild what the
    /// ingest pass already computed. The hashes must be the
    /// [`ColumnSketch::hashes`] of this exact value sequence; callers
    /// (the spill decoder) verify provenance via the entry checksum.
    pub fn from_parts_with_sketch(
        values: Vec<Value>,
        nulls: usize,
        counts: Vec<u64>,
        hashes: Vec<u64>,
    ) -> ColumnDict {
        let rows = counts.iter().sum::<u64>() as usize;
        let dict = ColumnDict::from_parts(values, nulls, counts);
        let _ = dict.sketch.set(Some(Arc::new(ColumnSketch::from_hashes(
            rows, nulls, hashes,
        ))));
        dict
    }

    /// The column's sketch, built on first request (O(cardinality))
    /// and cached. `None` when the dictionary cannot vouch for
    /// exactness: the fused-counts invariant is broken (a hand-assembled
    /// dictionary with missing counts, or a code no row carries) — then
    /// `cardinality()` may over-count the live column and any pruning
    /// proof would be unsound, so no sketch is offered at all.
    pub fn sketch(&self) -> Option<Arc<ColumnSketch>> {
        self.sketch
            .get_or_init(|| {
                if self.counts.len() != self.values.len() + 1 {
                    return None;
                }
                if self.counts.iter().skip(1).any(|&c| c == 0) {
                    return None;
                }
                let rows = self.counts.iter().sum::<u64>() as usize;
                Some(Arc::new(ColumnSketch::build(
                    &self.values,
                    self.nulls,
                    rows,
                )))
            })
            .clone()
    }

    /// The sketch if one was already built or preseeded — never
    /// triggers a build (spill serialization uses this to persist
    /// exactly what ingest computed).
    pub fn sketch_if_built(&self) -> Option<Arc<ColumnSketch>> {
        self.sketch.get().cloned().flatten()
    }

    /// A codes-free copy: the decode/encode tables and the NULL count
    /// survive, the per-row code vector is dropped. This is the
    /// resident half of the paged store ([`crate::pages`]) — every
    /// kernel that reads only `cardinality` / `code_of` /
    /// `distinct_values` / `value_of` (notably [`code_translation`],
    /// [`intersect_count`] and [`decode_set_cols`]) works on a slim
    /// dictionary unchanged, while per-row codes stream from disk.
    /// `rows()` reports 0 on the copy; the paged column tracks the
    /// true row count itself.
    pub fn slim(&self) -> ColumnDict {
        ColumnDict {
            codes: Vec::new(),
            values: self.values.clone(),
            index: self.index.clone(),
            nulls: self.nulls,
            counts: self.counts.clone(),
            // A sketch summarizes the value set, which slimming keeps.
            sketch: self.sketch.clone(),
        }
    }

    /// Rebuilds a full dictionary from this (slim) one plus a per-row
    /// code vector — the paged store's rehydration path for consumers
    /// that need random access to codes (the `column_dict()` seam:
    /// key inference, RHS-Discovery's g3 error on streamed tables and
    /// Restruct's hydration of streamed columns).
    pub fn rehydrate(&self, codes: Vec<u32>) -> ColumnDict {
        ColumnDict {
            codes,
            values: self.values.clone(),
            index: self.index.clone(),
            nulls: self.nulls,
            counts: self.counts.clone(),
            sketch: self.sketch.clone(),
        }
    }
}

/// The set of distinct, fully non-NULL projected code tuples of one
/// side — the encoded counterpart of [`Table::distinct_projection`].
///
/// The representation is chosen by projection arity:
/// * 1 attribute: codes are assigned first-occurrence, so the distinct
///   code set is exactly `1..=cardinality` — nothing to materialize;
/// * 2 attributes: keys pack into a `u64` (`hi << 32 | lo`);
/// * otherwise: boxed `u32` slices (also covers the degenerate empty
///   projection, whose only possible tuple is `[]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedSet {
    /// Unary projection: every code `1..=card` occurs.
    Unary {
        /// The column cardinality (= set size).
        card: u32,
    },
    /// Two-attribute projection with packed `u64` keys.
    Packed(FxHashSet<u64>),
    /// Any other arity, keyed by the full code tuple.
    Wide(FxHashSet<Box<[u32]>>),
}

impl EncodedSet {
    /// Number of distinct non-NULL projected tuples.
    pub fn len(&self) -> usize {
        match self {
            EncodedSet::Unary { card } => *card as usize,
            EncodedSet::Packed(s) => s.len(),
            EncodedSet::Wide(s) => s.len(),
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[inline]
fn pack2(hi: u32, lo: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

// ---- column-slice kernels -------------------------------------------
//
// Each kernel takes the projected columns as `&[&ColumnDict]`
// (repeats allowed — a projection list can name a column twice) plus
// the table's row count, which disambiguates the empty projection.

/// `‖r[cols]‖` under SQL semantics (rows with a NULL among the
/// projection dropped) — the paper's cardinality query, matching
/// [`Table::count_distinct`] exactly.
pub fn count_distinct_cols(cols: &[&ColumnDict], rows: usize) -> usize {
    match cols {
        [c] => c.cardinality(),
        [ca, cb] => {
            // Bitset fast path: when the code-domain product is small,
            // pair counting is a dense bit array instead of a hash set.
            let domain = ca.cardinality() as u64 * cb.cardinality() as u64;
            const BITSET_MAX: u64 = 1 << 22; // 512 KiB of bits
            if domain > 0 && domain <= BITSET_MAX {
                let width = cb.cardinality() as u64;
                let mut bits = vec![0u64; (domain as usize).div_ceil(64)];
                let mut count = 0usize;
                for (&x, &y) in ca.codes().iter().zip(cb.codes()) {
                    if x == NULL_CODE || y == NULL_CODE {
                        continue;
                    }
                    let idx = (u64::from(x) - 1) * width + (u64::from(y) - 1);
                    let (w, m) = ((idx / 64) as usize, 1u64 << (idx % 64));
                    if bits[w] & m == 0 {
                        bits[w] |= m;
                        count += 1;
                    }
                }
                count
            } else {
                distinct_codes_cols(cols, rows).len()
            }
        }
        _ => distinct_codes_cols(cols, rows).len(),
    }
}

/// The distinct non-NULL projected code tuples (SQL semantics) —
/// decode with [`decode_set_cols`] to recover the exact
/// [`Table::distinct_projection`] result.
pub fn distinct_codes_cols(cols: &[&ColumnDict], rows: usize) -> EncodedSet {
    match cols {
        [] => {
            // π_∅ is {[]} on a non-empty table, {} on an empty one
            // (matching the Value-based reference).
            let mut s: FxHashSet<Box<[u32]>> = FxHashSet::default();
            if rows > 0 {
                s.insert(Box::from([]));
            }
            EncodedSet::Wide(s)
        }
        [c] => EncodedSet::Unary {
            card: c.cardinality() as u32,
        },
        [ca, cb] => {
            let cap = (ca.cardinality() as u64 * cb.cardinality() as u64).min(rows as u64) as usize;
            let mut set: FxHashSet<u64> =
                FxHashSet::with_capacity_and_hasher(cap, Default::default());
            for (&x, &y) in ca.codes().iter().zip(cb.codes()) {
                if x != NULL_CODE && y != NULL_CODE {
                    set.insert(pack2(x, y));
                }
            }
            EncodedSet::Packed(set)
        }
        _ => {
            let codes: Vec<&[u32]> = cols.iter().map(|c| c.codes()).collect();
            let mut set: FxHashSet<Box<[u32]>> = FxHashSet::default();
            let mut scratch: Vec<u32> = vec![0; cols.len()];
            'rows: for i in 0..rows {
                for (s, c) in scratch.iter_mut().zip(&codes) {
                    let code = c[i];
                    if code == NULL_CODE {
                        continue 'rows;
                    }
                    *s = code;
                }
                // Probe by slice first so duplicates allocate nothing.
                if !set.contains(scratch.as_slice()) {
                    set.insert(scratch.clone().into_boxed_slice());
                }
            }
            EncodedSet::Wide(set)
        }
    }
}

/// Decodes an [`EncodedSet`] produced from `cols` back into `Value`
/// tuples; equals [`Table::distinct_projection`].
pub fn decode_set_cols(cols: &[&ColumnDict], set: &EncodedSet) -> HashSet<ProjKey> {
    let decode_one = |col: &ColumnDict, code: u32| -> Value {
        col.value_of(code).cloned().unwrap_or(Value::Null)
    };
    match set {
        EncodedSet::Unary { card } => match cols {
            [c] => (1..=*card).map(|code| vec![decode_one(c, code)]).collect(),
            _ => HashSet::new(),
        },
        EncodedSet::Packed(s) => match cols {
            [ca, cb] => s
                .iter()
                .map(|&k| vec![decode_one(ca, (k >> 32) as u32), decode_one(cb, k as u32)])
                .collect(),
            _ => HashSet::new(),
        },
        EncodedSet::Wide(s) => s
            .iter()
            .map(|key| {
                cols.iter()
                    .zip(key.iter())
                    .map(|(c, &code)| decode_one(c, code))
                    .collect()
            })
            .collect(),
    }
}

/// Occurrence counts for `col`'s code domain — borrowed from the
/// dictionary's fused counts when the invariant holds, recounted from
/// the code vector otherwise (hand-assembled dictionaries).
fn counts_of(col: &ColumnDict) -> std::borrow::Cow<'_, [u64]> {
    let domain = col.cardinality() + 1;
    if col.code_counts().len() == domain {
        return std::borrow::Cow::Borrowed(col.code_counts());
    }
    let mut counts: Vec<u64> = vec![0; domain];
    for &c in col.codes() {
        counts[c as usize] += 1;
    }
    std::borrow::Cow::Owned(counts)
}

/// The unary stripped partition `π_attr` (mining convention:
/// NULL = NULL) via array buckets over the code domain — no hashing.
/// Equals [`StrippedPartition::for_attribute`].
pub fn partition1_col(col: &ColumnDict) -> StrippedPartition {
    // The sizes come straight from the dictionary (fused into the
    // interning loop), so stripped singleton classes — the vast
    // majority on key-like columns — never allocate anything and the
    // kernel is a single fill pass.
    let domain = col.cardinality() + 1;
    let counts = counts_of(col);
    // slots[c] is the class of code c, or MAX for stripped codes
    // (count < 2; code 0 = the NULL class, kept like any other).
    let mut slots: Vec<u32> = vec![u32::MAX; domain];
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (c, &n) in counts.iter().enumerate() {
        if n >= 2 {
            slots[c] = classes.len() as u32;
            classes.push(Vec::with_capacity(n as usize));
        }
    }
    for (i, &c) in col.codes().iter().enumerate() {
        let s = slots[c as usize];
        if s != u32::MAX {
            classes[s as usize].push(i);
        }
    }
    // Rows were pushed in ascending order; only the outer order needs
    // normalizing to match `from_groups`.
    classes.sort();
    StrippedPartition {
        classes,
        rows: col.rows(),
    }
}

/// The stripped partition over `cols` (NULL = NULL), built in one
/// grouping pass over packed code keys. Equals
/// [`StrippedPartition::for_attrs`]: grouping directly by the full
/// tuple yields the same classes as TANE's chained products, and both
/// normalize class order identically.
pub fn partition_cols(cols: &[&ColumnDict], rows: usize) -> StrippedPartition {
    match cols {
        [] => StrippedPartition::single_class(rows),
        [c] => partition1_col(c),
        [ca, cb] => {
            let (ca, cb) = (ca.codes(), cb.codes());
            let mut groups: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
            for i in 0..rows {
                groups.entry(pack2(ca[i], cb[i])).or_default().push(i);
            }
            strip(groups.into_values(), rows)
        }
        _ => {
            let codes: Vec<&[u32]> = cols.iter().map(|c| c.codes()).collect();
            let mut groups: FxHashMap<Box<[u32]>, Vec<usize>> = FxHashMap::default();
            let mut scratch: Vec<u32> = vec![0; cols.len()];
            for i in 0..rows {
                for (s, c) in scratch.iter_mut().zip(&codes) {
                    *s = c[i];
                }
                if let Some(g) = groups.get_mut(scratch.as_slice()) {
                    g.push(i);
                } else {
                    groups.insert(scratch.clone().into_boxed_slice(), vec![i]);
                }
            }
            strip(groups.into_values(), rows)
        }
    }
}

/// Row-index groups (size ≥ 2) agreeing on `cols` under SQL semantics
/// — rows with a NULL among the projection are skipped.
/// Deterministically ordered; the encoded counterpart of the LHS-group
/// builder behind `StatsEngine::fd_holds`.
pub fn lhs_groups_cols(cols: &[&ColumnDict], rows: usize) -> Vec<Vec<usize>> {
    match cols {
        [] => {
            // No attributes, no NULLs to skip: all rows agree.
            if rows >= 2 {
                vec![(0..rows).collect()]
            } else {
                Vec::new()
            }
        }
        [col] => {
            // Sizes from the dictionary's fused counts (as in
            // [`partition1_col`]): singleton codes — the common case on
            // key-like columns — never allocate a group.
            let counts = counts_of(col);
            let mut slots: Vec<u32> = vec![u32::MAX; counts.len()];
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for (c, &n) in counts.iter().enumerate() {
                if c != NULL_CODE as usize && n >= 2 {
                    slots[c] = groups.len() as u32;
                    groups.push(Vec::with_capacity(n as usize));
                }
            }
            for (i, &c) in col.codes().iter().enumerate() {
                let s = slots[c as usize];
                if c != NULL_CODE && s != u32::MAX {
                    groups[s as usize].push(i);
                }
            }
            groups.sort();
            groups
        }
        [ca, cb] => {
            let (ca, cb) = (ca.codes(), cb.codes());
            let mut map: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
            for i in 0..rows {
                if ca[i] != NULL_CODE && cb[i] != NULL_CODE {
                    map.entry(pack2(ca[i], cb[i])).or_default().push(i);
                }
            }
            let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
            groups.sort();
            groups
        }
        _ => {
            let codes: Vec<&[u32]> = cols.iter().map(|c| c.codes()).collect();
            let mut map: FxHashMap<Box<[u32]>, Vec<usize>> = FxHashMap::default();
            let mut scratch: Vec<u32> = vec![0; cols.len()];
            'rows: for i in 0..rows {
                for (s, c) in scratch.iter_mut().zip(&codes) {
                    let code = c[i];
                    if code == NULL_CODE {
                        continue 'rows;
                    }
                    *s = code;
                }
                if let Some(g) = map.get_mut(scratch.as_slice()) {
                    g.push(i);
                } else {
                    map.insert(scratch.clone().into_boxed_slice(), vec![i]);
                }
            }
            let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
            groups.sort();
            groups
        }
    }
}

/// Does `lhs → rhs` hold under SQL semantics (NULL-LHS rows skipped)?
/// Single pass, first-witness comparison on codes; same answer as
/// `Database::fd_holds` — structural `Value` equality coincides with
/// code equality because both sides intern through the same `Eq`.
pub fn fd_holds_cols(lhs: &[&ColumnDict], rhs: &[&ColumnDict], rows: usize) -> bool {
    let rcols: Vec<&[u32]> = rhs.iter().map(|c| c.codes()).collect();
    let agree = |i: usize, j: usize| rcols.iter().all(|c| c[i] == c[j]);
    match lhs {
        [] => {
            // Empty LHS: every row must agree on the RHS.
            (1..rows).all(|i| agree(0, i))
        }
        [col] => {
            let mut first: Vec<usize> = vec![usize::MAX; col.cardinality() + 1];
            for (i, &c) in col.codes().iter().enumerate() {
                if c == NULL_CODE {
                    continue;
                }
                let f = first[c as usize];
                if f == usize::MAX {
                    first[c as usize] = i;
                } else if !agree(i, f) {
                    return false;
                }
            }
            true
        }
        [ca, cb] => {
            let (ca, cb) = (ca.codes(), cb.codes());
            let mut first: FxHashMap<u64, usize> = FxHashMap::default();
            for i in 0..rows {
                if ca[i] == NULL_CODE || cb[i] == NULL_CODE {
                    continue;
                }
                match first.entry(pack2(ca[i], cb[i])) {
                    Entry::Occupied(e) => {
                        if !agree(i, *e.get()) {
                            return false;
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(i);
                    }
                }
            }
            true
        }
        _ => {
            let codes: Vec<&[u32]> = lhs.iter().map(|c| c.codes()).collect();
            let mut first: FxHashMap<Box<[u32]>, usize> = FxHashMap::default();
            let mut scratch: Vec<u32> = vec![0; lhs.len()];
            'rows: for i in 0..rows {
                for (s, c) in scratch.iter_mut().zip(&codes) {
                    let code = c[i];
                    if code == NULL_CODE {
                        continue 'rows;
                    }
                    *s = code;
                }
                if let Some(&f) = first.get(scratch.as_slice()) {
                    if !agree(i, f) {
                        return false;
                    }
                } else {
                    first.insert(scratch.clone().into_boxed_slice(), i);
                }
            }
            true
        }
    }
}

/// A fully dictionary-encoded table: one shared [`ColumnDict`] per
/// attribute (cheap to assemble from per-column caches — see
/// [`crate::stats::StatsEngine::dict`]).
///
/// Immutable and `Sync` after construction, so parallel workers share
/// the codes read-only. Whole-table consumers (TANE, SPIDER, key
/// discovery, `check_encoded`) use this; per-projection consumers go
/// through the column-slice kernels directly.
#[derive(Debug, Clone, Default)]
pub struct DictTable {
    columns: Vec<Arc<ColumnDict>>,
    rows: usize,
}

impl DictTable {
    /// Encodes every column of `table`. One pass per column.
    pub fn build(table: &Table) -> Self {
        let columns = (0..table.arity())
            .map(|i| Arc::new(ColumnDict::build(table.column(AttrId(i as u16)))))
            .collect();
        DictTable {
            columns,
            rows: table.len(),
        }
    }

    /// Assembles a table view from already-built column dictionaries
    /// (all encoding the same `rows`-row table, in attribute order).
    pub fn from_columns(columns: Vec<Arc<ColumnDict>>, rows: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.rows() == rows));
        DictTable { columns, rows }
    }

    /// Number of rows of the encoded table.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// One column's dictionary.
    #[inline]
    pub fn column(&self, attr: AttrId) -> &ColumnDict {
        self.columns[attr.index()].as_ref()
    }

    /// The column dictionaries of `attrs`, hoisted once so row loops
    /// never re-walk the attribute lookup.
    fn cols(&self, attrs: &[AttrId]) -> Vec<&ColumnDict> {
        attrs.iter().map(|a| self.column(*a)).collect()
    }

    /// `‖r[attrs]‖` under SQL semantics; see [`count_distinct_cols`].
    pub fn count_distinct(&self, attrs: &[AttrId]) -> usize {
        count_distinct_cols(&self.cols(attrs), self.rows)
    }

    /// Distinct projected code tuples; see [`distinct_codes_cols`].
    pub fn distinct_codes(&self, attrs: &[AttrId]) -> EncodedSet {
        distinct_codes_cols(&self.cols(attrs), self.rows)
    }

    /// Decodes an [`EncodedSet`] from this table on `attrs`; see
    /// [`decode_set_cols`].
    pub fn decode_set(&self, attrs: &[AttrId], set: &EncodedSet) -> HashSet<ProjKey> {
        decode_set_cols(&self.cols(attrs), set)
    }

    /// Unary stripped partition; see [`partition1_col`].
    pub fn partition1(&self, attr: AttrId) -> StrippedPartition {
        partition1_col(self.column(attr))
    }

    /// Stripped partition over `attrs`; see [`partition_cols`].
    pub fn partition(&self, attrs: &[AttrId]) -> StrippedPartition {
        partition_cols(&self.cols(attrs), self.rows)
    }

    /// SQL-semantics LHS groups; see [`lhs_groups_cols`].
    pub fn lhs_groups(&self, attrs: &[AttrId]) -> Vec<Vec<usize>> {
        lhs_groups_cols(&self.cols(attrs), self.rows)
    }

    /// SQL-semantics FD check; see [`fd_holds_cols`].
    pub fn fd_holds(&self, lhs: &[AttrId], rhs: &[AttrId]) -> bool {
        fd_holds_cols(&self.cols(lhs), &self.cols(rhs), self.rows)
    }
}

/// `from_groups` twin for code-keyed grouping: strip singletons,
/// normalize ordering.
fn strip(groups: impl IntoIterator<Item = Vec<usize>>, rows: usize) -> StrippedPartition {
    let mut classes: Vec<Vec<usize>> = groups.into_iter().filter(|g| g.len() >= 2).collect();
    // Rows were pushed in ascending order; classes arrive unsorted
    // from the map.
    classes.sort();
    StrippedPartition { classes, rows }
}

/// Per-position code translation `left code → right code`
/// ([`NULL_CODE`] when the left value does not occur on the right —
/// callers must treat a zero result as "no match", never as NULL
/// equality). Codes are column-local, so cross-table probes — the
/// intersection kernel here — go through this table instead of
/// re-hashing `Value`s per tuple.
pub fn code_translation(left: &ColumnDict, right: &ColumnDict) -> Vec<u32> {
    let mut t = vec![NULL_CODE; left.cardinality() + 1];
    for (i, v) in left.distinct_values().iter().enumerate() {
        t[i + 1] = right.code_of(v);
    }
    t
}

/// `|π_L(left) ∩ π_R(right)|` — the `N_kl` of the paper — from
/// prebuilt encoded sets over the two sides' projected columns. The
/// sides must have equal arity (guaranteed by
/// [`crate::counting::EquiJoin`]); on a malformed pair the count falls
/// back to the decoded reference intersection.
pub fn intersect_count(
    lcols: &[&ColumnDict],
    lset: &EncodedSet,
    rcols: &[&ColumnDict],
    rset: &EncodedSet,
) -> usize {
    match (lcols, rcols, lset, rset) {
        ([lc], [rc], EncodedSet::Unary { .. }, EncodedSet::Unary { .. }) => {
            // Iterate the smaller dictionary, probe the larger's index.
            let (small, large) = if lc.cardinality() <= rc.cardinality() {
                (lc, rc)
            } else {
                (rc, lc)
            };
            small
                .distinct_values()
                .iter()
                .filter(|v| large.code_of(v) != NULL_CODE)
                .count()
        }
        ([la, lb], [ra, rb], EncodedSet::Packed(ls), EncodedSet::Packed(rs)) => {
            // Iterate the smaller set; translate into the larger side's
            // code space per position, then probe.
            let translated_probe =
                |it: &FxHashSet<u64>, ta: Vec<u32>, tb: Vec<u32>, other: &FxHashSet<u64>| {
                    it.iter()
                        .filter(|&&k| {
                            let (x, y) = (ta[(k >> 32) as usize], tb[(k as u32) as usize]);
                            x != NULL_CODE && y != NULL_CODE && other.contains(&pack2(x, y))
                        })
                        .count()
                };
            if ls.len() <= rs.len() {
                translated_probe(ls, code_translation(la, ra), code_translation(lb, rb), rs)
            } else {
                translated_probe(rs, code_translation(ra, la), code_translation(rb, lb), ls)
            }
        }
        (_, _, EncodedSet::Wide(ls), EncodedSet::Wide(rs)) if lcols.len() == rcols.len() => {
            let probe_wide = |it: &FxHashSet<Box<[u32]>>,
                              xlats: Vec<Vec<u32>>,
                              other: &FxHashSet<Box<[u32]>>| {
                let mut scratch: Vec<u32> = vec![0; xlats.len()];
                it.iter()
                    .filter(|key| {
                        for ((s, &c), t) in scratch.iter_mut().zip(key.iter()).zip(&xlats) {
                            *s = t[c as usize];
                            if *s == NULL_CODE {
                                // The left value has no right-side code.
                                return false;
                            }
                        }
                        other.contains(scratch.as_slice())
                    })
                    .count()
            };
            if ls.len() <= rs.len() {
                let xlats = lcols
                    .iter()
                    .zip(rcols)
                    .map(|(l, r)| code_translation(l, r))
                    .collect();
                probe_wide(ls, xlats, rs)
            } else {
                let xlats = lcols
                    .iter()
                    .zip(rcols)
                    .map(|(l, r)| code_translation(r, l))
                    .collect();
                probe_wide(rs, xlats, ls)
            }
        }
        _ => {
            // Mismatched arity or representations: fall back to the
            // decoded reference intersection (always correct).
            let l = decode_set_cols(lcols, lset);
            let r = decode_set_cols(rcols, rset);
            let (small, large) = if l.len() <= r.len() {
                (&l, &r)
            } else {
                (&r, &l)
            };
            small.iter().filter(|k| large.contains(*k)).count()
        }
    }
}

/// The three IND-Discovery cardinalities for an encoded join, built
/// from scratch. Equals [`crate::counting::join_stats`].
pub fn join_stats_encoded(
    left: &DictTable,
    lattrs: &[AttrId],
    right: &DictTable,
    rattrs: &[AttrId],
) -> JoinStats {
    let lcols: Vec<&ColumnDict> = lattrs.iter().map(|a| left.column(*a)).collect();
    let rcols: Vec<&ColumnDict> = rattrs.iter().map(|a| right.column(*a)).collect();
    let lset = distinct_codes_cols(&lcols, left.rows());
    let rset = distinct_codes_cols(&rcols, right.rows());
    JoinStats {
        n_left: lset.len(),
        n_right: rset.len(),
        n_join: intersect_count(&lcols, &lset, &rcols, &rset),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    fn sample() -> Table {
        // (x, y): (1,'a') (1,'a') (2,'b') (NULL,'c') (3,NULL)
        #[allow(clippy::unwrap_used)]
        Table::from_rows(
            2,
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Null, Value::str("c")],
                vec![Value::Int(3), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn null_encodes_to_sentinel_and_values_to_dense_codes() {
        let t = sample();
        let d = DictTable::build(&t);
        assert_eq!(d.rows(), 5);
        assert_eq!(d.column(a(0)).codes(), &[1, 1, 2, 0, 3]);
        assert_eq!(d.column(a(1)).codes(), &[1, 1, 2, 3, 0]);
        assert_eq!(d.column(a(0)).cardinality(), 3);
        assert!(d.column(a(0)).has_null());
        assert_eq!(d.column(a(0)).null_count(), 1);
        assert_eq!(d.column(a(0)).value_of(1), Some(&Value::Int(1)));
        assert_eq!(d.column(a(0)).value_of(0), None);
        assert_eq!(d.column(a(0)).code_of(&Value::Int(2)), 2);
        assert_eq!(d.column(a(0)).code_of(&Value::Int(99)), NULL_CODE);
        assert_eq!(d.column(a(0)).code_of(&Value::Null), NULL_CODE);
    }

    #[test]
    fn count_distinct_matches_reference() {
        let t = sample();
        let d = DictTable::build(&t);
        for attrs in [
            vec![a(0)],
            vec![a(1)],
            vec![a(0), a(1)],
            vec![a(1), a(0)],
            vec![a(0), a(0)],
            vec![],
        ] {
            assert_eq!(
                d.count_distinct(&attrs),
                t.count_distinct(&attrs),
                "attrs {attrs:?}"
            );
        }
    }

    #[test]
    fn decode_recovers_reference_projection() {
        let t = sample();
        let d = DictTable::build(&t);
        for attrs in [vec![a(0)], vec![a(0), a(1)], vec![a(1), a(0), a(0)]] {
            let set = d.distinct_codes(&attrs);
            assert_eq!(
                d.decode_set(&attrs, &set),
                t.distinct_projection(&attrs),
                "attrs {attrs:?}"
            );
        }
    }

    #[test]
    fn partitions_match_reference() {
        let t = sample();
        let d = DictTable::build(&t);
        for attrs in [vec![a(0)], vec![a(1)], vec![a(0), a(1)], vec![]] {
            assert_eq!(
                d.partition(&attrs),
                StrippedPartition::for_attrs(&t, &attrs),
                "attrs {attrs:?}"
            );
        }
        assert_eq!(
            d.partition1(a(0)),
            StrippedPartition::for_attribute(&t, a(0))
        );
    }

    #[test]
    fn fd_holds_matches_sql_semantics() {
        // NULL-LHS rows skipped: x → y holds despite the NULL rows.
        #[allow(clippy::unwrap_used)]
        let t = Table::from_rows(
            2,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Null, Value::Int(1)],
                vec![Value::Null, Value::Int(2)],
                vec![Value::Int(2), Value::Int(10)],
            ],
        )
        .unwrap();
        let d = DictTable::build(&t);
        assert!(d.fd_holds(&[a(0)], &[a(1)]));
        // y = 10 maps to x ∈ {1, 2}.
        assert!(!d.fd_holds(&[a(1)], &[a(0)]));
        // Empty LHS: constant-column test.
        assert!(!d.fd_holds(&[], &[a(0)]));
    }

    #[test]
    fn lhs_groups_skip_null_rows() {
        let t = sample();
        let d = DictTable::build(&t);
        // x: value 1 on rows {0,1}; NULL row 3 skipped.
        assert_eq!(d.lhs_groups(&[a(0)]), vec![vec![0, 1]]);
        // (x, y): only (1,'a') repeats.
        assert_eq!(d.lhs_groups(&[a(0), a(1)]), vec![vec![0, 1]]);
    }

    #[test]
    fn join_stats_translate_across_tables() {
        #[allow(clippy::unwrap_used)]
        let l = Table::from_rows(
            1,
            [1, 2, 2, 4, -7]
                .iter()
                .map(|&v| vec![Value::Int(v)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        #[allow(clippy::unwrap_used)]
        let r = Table::from_rows(
            1,
            [4, 1, 9]
                .iter()
                .map(|&v| vec![Value::Int(v)])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let (dl, dr) = (DictTable::build(&l), DictTable::build(&r));
        let s = join_stats_encoded(&dl, &[a(0)], &dr, &[a(0)]);
        assert_eq!((s.n_left, s.n_right, s.n_join), (4, 3, 2));
    }

    #[test]
    fn nan_interns_consistently() {
        use crate::value::OrdF64;
        #[allow(clippy::unwrap_used)]
        let t = Table::from_rows(
            1,
            vec![
                vec![Value::Float(OrdF64(f64::NAN))],
                vec![Value::Float(OrdF64(f64::NAN))],
                vec![Value::Float(OrdF64(1.5))],
            ],
        )
        .unwrap();
        let d = DictTable::build(&t);
        // Same-payload NaNs share a code (OrdF64 total order).
        assert_eq!(d.column(a(0)).cardinality(), 2);
        assert_eq!(d.count_distinct(&[a(0)]), t.count_distinct(&[a(0)]));
        assert_eq!(
            d.partition1(a(0)),
            StrippedPartition::for_attribute(&t, a(0))
        );
    }

    #[test]
    fn empty_table_kernels() {
        let t = Table::new(2);
        let d = DictTable::build(&t);
        assert_eq!(d.count_distinct(&[a(0)]), 0);
        assert_eq!(d.count_distinct(&[a(0), a(1)]), 0);
        assert!(d.distinct_codes(&[]).is_empty());
        assert!(d.partition(&[a(0), a(1)]).is_key());
        assert!(d.fd_holds(&[a(0)], &[a(1)]));
        assert!(d.lhs_groups(&[a(0)]).is_empty());
    }

    #[test]
    fn builder_matches_batch_build_and_counts_are_fused() {
        let t = sample();
        for i in 0..t.arity() {
            let column = t.column(a(i as u16));
            let built = ColumnDict::build(column);
            // Fused counts: one slot per code, NULLs in slot 0.
            assert_eq!(built.code_counts().len(), built.cardinality() + 1);
            assert_eq!(built.code_counts()[0], built.null_count() as u64);
            let total: u64 = built.code_counts().iter().sum();
            assert_eq!(total, built.rows() as u64);
            // Streaming interner reproduces the batch dictionary.
            let mut b = DictBuilder::new();
            let codes: Vec<u32> = column.iter().map(|v| b.intern(v)).collect();
            assert_eq!(codes, built.codes());
            let slim = b.finish_slim();
            assert_eq!(slim.distinct_values(), built.distinct_values());
            assert_eq!(slim.null_count(), built.null_count());
            assert_eq!(slim.code_counts(), built.code_counts());
            // from_parts round-trips the serialized shape.
            let parts = ColumnDict::from_parts(
                slim.distinct_values().to_vec(),
                slim.null_count(),
                slim.code_counts().to_vec(),
            );
            assert_eq!(parts.code_of(&Value::Int(1)), built.code_of(&Value::Int(1)));
            assert_eq!(parts.cardinality(), built.cardinality());
        }
    }

    #[test]
    fn kernels_fall_back_when_counts_missing() {
        // A hand-assembled dictionary without the counts invariant
        // (e.g. Default + rehydrate) must still partition correctly.
        let t = sample();
        let built = ColumnDict::build(t.column(a(0)));
        let stripped = ColumnDict::default().rehydrate(built.codes().to_vec());
        // Cardinality is 0 on the stripped dict, so counts length
        // mismatches and the kernels recount; partition1 only depends
        // on codes, and all real codes are out of the (empty) domain —
        // exercise just the recount path on the true dict shape.
        assert_eq!(stripped.code_counts().len(), 0);
        let mut manual = built.clone();
        manual.counts = Vec::new();
        assert_eq!(partition1_col(&manual), partition1_col(&built));
        assert_eq!(
            lhs_groups_cols(&[&manual], t.len()),
            lhs_groups_cols(&[&built], t.len())
        );
    }

    #[test]
    fn dict_sketch_lazy_and_exact() {
        let t = sample();
        let built = ColumnDict::build(t.column(a(0)));
        // Lazy: nothing built until asked.
        assert!(built.sketch_if_built().is_none());
        let sketch = built.sketch().expect("counts invariant holds");
        assert_eq!(sketch.distinct_exact(), built.cardinality());
        assert_eq!(sketch.null_count(), built.null_count());
        assert_eq!(sketch.rows(), built.rows());
        // Cached: second call returns the same Arc.
        assert!(Arc::ptr_eq(&sketch, &built.sketch().unwrap()));
        // Slim and rehydrated copies carry the sketch.
        assert!(built.slim().sketch_if_built().is_some());
        // Broken counts invariant → no sketch (pruning stays sound).
        // Start from a never-sketched dict: clones of a sketched one
        // deliberately carry the cached sketch (slim/rehydrate rely on
        // that), so the lazy path would never re-examine counts.
        let mut manual = ColumnDict::build(t.column(a(0)));
        manual.counts = Vec::new();
        assert!(manual.sketch().is_none());
        // A code no row carries (zero count) → no sketch.
        let unused = ColumnDict::from_parts(vec![Value::Int(1), Value::Int(2)], 0, vec![0, 1, 0]);
        assert!(unused.sketch().is_none());
        // from_parts_with_sketch preseeds a sketch equal to a rebuild.
        let slim = built.slim();
        let seeded = ColumnDict::from_parts_with_sketch(
            slim.distinct_values().to_vec(),
            slim.null_count(),
            slim.code_counts().to_vec(),
            sketch.hashes().to_vec(),
        );
        assert_eq!(
            seeded.sketch_if_built().as_deref(),
            Some(sketch.as_ref()),
            "preseeded sketch equals a fresh build"
        );
    }

    #[test]
    fn from_columns_matches_whole_table_build() {
        let t = sample();
        let built = DictTable::build(&t);
        let assembled = DictTable::from_columns(
            (0..t.arity())
                .map(|i| Arc::new(ColumnDict::build(t.column(a(i as u16)))))
                .collect(),
            t.len(),
        );
        assert_eq!(assembled.rows(), built.rows());
        assert_eq!(assembled.arity(), built.arity());
        assert_eq!(
            assembled.distinct_codes(&[a(0), a(1)]),
            built.distinct_codes(&[a(0), a(1)])
        );
    }
}
