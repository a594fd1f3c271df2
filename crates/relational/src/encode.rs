//! Dictionary-encoded columns and the one family of integer-code
//! kernels behind every `‖·‖` probe.
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
//! pays for exactly two dictionary builds.
//!
//! The kernels — [`distinct_codes`], [`lhs_groups`] and
//! [`partition1`] — exist once, generic over a [`CodeSource`] that
//! yields a column's codes in page-sized chunks through a pager.
//! Resident codes (a built [`ColumnDict`], the `encoded` backend)
//! slice the code vector and cannot fail; spilled codes
//! ([`crate::pages::PagedColumn`], the `paged` backend) read pages
//! through the buffer pool. Both storage modes therefore share one
//! scan loop, one deterministic chunk-parallel merge under the
//! `parallel` feature, and one answer. Cross-column kernels that never
//! touch per-row codes — [`code_translation`], [`intersect_count`],
//! [`decode_set_cols`] — read only the dictionaries.
//!
//! Consequences of the encoding:
//!
//! * a unary `COUNT(DISTINCT a)` is the dictionary cardinality — `O(1)`
//!   after the build;
//! * unary groupings (partitions, LHS groups) are a counting-sort fill
//!   over the code domain, sized from the per-code counts the build
//!   fused into its interning loop — no hashing at all;
//! * a two-attribute projection key packs into a single `u64`
//!   (`hi << 32 | lo`), wider ones into a `Box<[u32]>` — no `Value`
//!   clones on any hot path;
//! * join intersections translate left codes to right codes through a
//!   per-position lookup table (codes are column-local), then probe
//!   integer sets.
//!
//! NULL conventions are preserved exactly: the SQL kernels
//! ([`distinct_codes`], [`lhs_groups`]) skip rows whose
//! projection touches code 0, while the mining kernel ([`partition1`])
//! treats code 0 as an ordinary value equal to itself, mirroring
//! [`crate::partitions`]. `NaN` floats intern through
//! [`crate::value::OrdF64`]'s total order, so two NaNs with the same
//! payload share a code exactly when the `Value` kernels consider them
//! equal.
//!
//! A `ColumnDict` is immutable after [`ColumnDict::build`]; sharing
//! one read-only across [`crate::par::par_map`] workers is safe
//! (`Sync` by construction, no interior mutability). Lifecycle
//! management — building once per table generation and invalidating on
//! mutation — lives in the counting backends
//! ([`crate::backend::ColumnarBackend`]).

use crate::attr::AttrId;
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::pages::PAGE_CODES;
use crate::partitions::StrippedPartition;
use crate::sketch::ColumnSketch;
use crate::table::{ProjKey, Table};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::convert::Infallible;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// The NULL sentinel code: row positions holding SQL `NULL` encode to
/// 0 in every [`ColumnDict`]; real values start at 1.
pub const NULL_CODE: u32 = 0;

/// One column's dictionary: per-row dense codes plus both decode
/// (code → value) and encode (value → code) directions.
///
/// Two dictionaries are equal iff they were built from the same cell
/// sequence (codes are assigned in first-occurrence order, so the
/// decode table is canonical), which is what the
/// streaming-vs-materialized differential tests pin.
#[derive(Debug, Clone, Default, PartialEq)]
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
        }
    }

    /// The column's exact row, NULL and distinct counts, read off the
    /// per-code counts (O(cardinality), on every call). `None` when the
    /// dictionary cannot vouch for exactness: the fused-counts
    /// invariant is broken (a hand-assembled dictionary with missing
    /// counts, or a code no row carries) — then `cardinality()` may
    /// over-count the live column and a shortcut taken on it would be
    /// unsound.
    pub fn sketch(&self) -> Option<ColumnSketch> {
        if self.counts.len() != self.values.len() + 1 {
            return None;
        }
        if self.counts.iter().skip(1).any(|&c| c == 0) {
            return None;
        }
        let rows = self.counts.iter().sum::<u64>() as usize;
        Some(ColumnSketch::new(rows, self.nulls, self.values.len()))
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

/// Decodes an [`EncodedSet`] produced from `cols` back into `Value`
/// tuples; equals [`Table::distinct_projection`]. Reads only the
/// decode tables, so slim dictionaries serve.
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

// ---- the kernel family over code sources ----------------------------
//
// Every row-scan kernel reads its columns through a [`CodeSource`]:
// page-sized chunks of codes, streamed in lockstep. Multi-column
// kernels take the projected columns as a slice (repeats allowed — a
// projection list can name a column twice) plus the table's row count,
// which disambiguates the empty projection. Under the `parallel`
// feature the chunks split into contiguous ranges scanned on scoped
// threads, and the per-range partials merge in range order, so every
// answer is byte-identical to the serial scan.

/// A column whose per-row codes are read in page-sized chunks through
/// a pager: chunk `i` holds rows `i * PAGE_CODES ..` up to the next
/// page boundary (or the last row).
///
/// A built [`ColumnDict`] is resident codes: its pager is `()`, each
/// chunk a slice of the code vector, and no read can fail. A
/// [`crate::pages::PagedColumn`] is spilled codes: its pager is the
/// [`crate::bufpool::BufferPool`], each chunk a pooled page, and a read
/// fails with a [`crate::pages::PageError`].
pub trait CodeSource: Sync {
    /// What chunks are read through.
    type Pager: Sync;
    /// Why a chunk could not be read — [`Infallible`] for resident
    /// codes.
    type Error: Send;
    /// One chunk's codes, borrowed or pinned for the scan.
    type Chunk<'a>: Deref<Target = [u32]> + Send
    where
        Self: 'a;
    /// Whether, under the `parallel` feature, a reader thread fetches
    /// chunks ahead of the kernel — worth it only where a read blocks.
    const PREFETCH: bool = false;

    /// The column's dictionary; a slim one is enough (kernels read only
    /// its cardinality, NULL count and fused code counts).
    fn dict(&self) -> &ColumnDict;

    /// Rows the column encodes.
    fn rows(&self) -> usize;

    /// Chunk `i`'s codes.
    fn chunk<'a>(
        &'a self,
        pager: &'a Self::Pager,
        i: usize,
    ) -> Result<Self::Chunk<'a>, Self::Error>;
}

/// Resident codes: each chunk is a slice of the code vector.
impl CodeSource for ColumnDict {
    type Pager = ();
    type Error = Infallible;
    type Chunk<'a> = &'a [u32];

    fn dict(&self) -> &ColumnDict {
        self
    }

    fn rows(&self) -> usize {
        self.codes.len()
    }

    fn chunk<'a>(&'a self, _: &'a (), i: usize) -> Result<&'a [u32], Infallible> {
        let len = self.codes.len();
        let start = i.saturating_mul(PAGE_CODES).min(len);
        let end = start.saturating_add(PAGE_CODES).min(len);
        Ok(&self.codes[start..end])
    }
}

/// Worker threads for chunked scans. Off-feature this is 1 (every
/// kernel is one serial scan); with the `parallel` feature it follows
/// the machine, overridable through `DBRE_PAGED_THREADS` (clamped to
/// 1..=64) so scaling can be measured — and the parallel code paths
/// exercised — regardless of the host's core count.
fn chunk_threads() -> usize {
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
    #[cfg(feature = "parallel")]
    {
        if let Ok(v) = std::env::var("DBRE_PAGED_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, 64);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Splits the chunks of a `rows`-row column into at most
/// [`chunk_threads`] contiguous ranges. Range boundaries depend only on
/// (rows, threads), so a merge in range order is deterministic.
fn chunk_ranges(rows: usize) -> Vec<Range<usize>> {
    let chunks = rows.div_ceil(PAGE_CODES);
    if chunks == 0 {
        return Vec::new();
    }
    let per = chunks.div_ceil(chunk_threads().clamp(1, chunks));
    (0..chunks)
        .step_by(per)
        .map(|s| s..(s + per).min(chunks))
        .collect()
}

/// Runs `f` over every range, one scoped thread per range when the
/// `parallel` feature is on and there is more than one range, inline
/// otherwise. Results come back **in range order** regardless of
/// completion order — the determinism the merges rely on. A worker's
/// panic resumes on the caller.
fn run_chunks<R, E, F>(ranges: &[Range<usize>], f: F) -> Vec<Result<R, E>>
where
    R: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<R, E> + Sync,
{
    #[cfg(feature = "parallel")]
    if ranges.len() > 1 {
        return std::thread::scope(|scope| {
            let workers: Vec<_> = ranges
                .iter()
                .map(|r| {
                    let (f, r) = (&f, r.clone());
                    scope.spawn(move || f(r))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
    }
    ranges.iter().map(|r| f(r.clone())).collect()
}

/// Folds per-range partials in range order. The first partial *is* the
/// accumulator — moved, never copied — so a single-range scan (the
/// serial build, or any column of one page) returns its partial as is.
/// `None` when there were no ranges (an empty column).
fn merge<R, E>(parts: Vec<Result<R, E>>, mut fold: impl FnMut(&mut R, R)) -> Result<Option<R>, E> {
    let mut acc = None;
    for part in parts {
        let part = part?;
        match &mut acc {
            None => acc = Some(part),
            Some(a) => fold(a, part),
        }
    }
    Ok(acc)
}

/// How many chunk groups the prefetching reader may run ahead of the
/// consumer.
#[cfg(feature = "parallel")]
const PREFETCH_DEPTH: usize = 2;

/// Streams `range`'s chunks of `cols` in lockstep, calling
/// `f(first_row, slices)` once per chunk in order. Holding the chunks
/// across the callback keeps pooled pages alive even if the pool
/// evicts them mid-iteration, so a capacity-1 pool is slow but never
/// wrong.
///
/// Under the `parallel` feature a [`CodeSource::PREFETCH`] source gets
/// a reader thread fetching chunks ahead of the consumer (bounded by
/// [`PREFETCH_DEPTH`]), overlapping page I/O with kernel compute.
/// Chunks are still requested and delivered strictly in order, so
/// results and pool counters are identical to the plain loop.
fn stream_range<C: CodeSource>(
    cols: &[&C],
    pager: &C::Pager,
    range: Range<usize>,
    mut f: impl FnMut(usize, &[&[u32]]),
) -> Result<(), C::Error> {
    #[cfg(feature = "parallel")]
    if C::PREFETCH && range.len() > 1 {
        return std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::sync_channel(PREFETCH_DEPTH);
            let reader = range.clone();
            scope.spawn(move || {
                for i in reader {
                    let group: Result<Vec<C::Chunk<'_>>, C::Error> =
                        cols.iter().map(|c| c.chunk(pager, i)).collect();
                    let stop = group.is_err();
                    if tx.send(group).is_err() || stop {
                        return;
                    }
                }
            });
            for (i, group) in range.zip(rx.iter()) {
                visit(i, &group?, &mut f);
            }
            Ok(())
        });
    }
    for i in range {
        let group: Vec<C::Chunk<'_>> = cols
            .iter()
            .map(|c| c.chunk(pager, i))
            .collect::<Result<_, _>>()?;
        visit(i, &group, &mut f);
    }
    Ok(())
}

/// Hands one chunk group to a kernel callback. Lockstep chunks of one
/// table have equal lengths; trimming to the shortest keeps every
/// index loop in bounds regardless.
fn visit<K: Deref<Target = [u32]>>(i: usize, group: &[K], f: &mut impl FnMut(usize, &[&[u32]])) {
    let n = group.iter().map(|c| c.len()).min().unwrap_or(0);
    let slices: Vec<&[u32]> = group.iter().map(|c| &c[..n]).collect();
    f(i * PAGE_CODES, &slices);
}

/// Per-code occurrence counts of `col` (index 0 = NULL): the
/// dictionary's fused counts ([`ColumnDict::code_counts`]) when they
/// hold, else one chunked counting pass (any other length means
/// "unavailable" by convention).
fn code_counts<'a, C: CodeSource>(
    col: &'a C,
    pager: &C::Pager,
) -> Result<Cow<'a, [u64]>, C::Error> {
    let domain = col.dict().cardinality() + 1;
    let fused = col.dict().code_counts();
    if fused.len() == domain {
        return Ok(Cow::Borrowed(fused));
    }
    let parts = run_chunks(&chunk_ranges(col.rows()), |r| {
        let mut counts: Vec<u64> = vec![0; domain];
        stream_range(&[col], pager, r, |_, s| {
            for &c in s[0] {
                counts[c as usize] += 1;
            }
        })?;
        Ok(counts)
    });
    let counts = merge(parts, |acc, part| {
        for (a, b) in acc.iter_mut().zip(part) {
            *a += b;
        }
    })?;
    Ok(Cow::Owned(counts.unwrap_or_else(|| vec![0; domain])))
}

/// The counting-sort slot table: `slots[c]` is the dense group index of
/// code `c`, `u32::MAX` for codes that form no group (fewer than two
/// rows, or NULL when `skip_null`). Returns the slot table and each
/// group's size.
fn group_slots(counts: &[u64], skip_null: bool) -> (Vec<u32>, Vec<usize>) {
    let mut slots: Vec<u32> = vec![u32::MAX; counts.len()];
    let mut sizes: Vec<usize> = Vec::new();
    for (c, &n) in counts.iter().enumerate().skip(usize::from(skip_null)) {
        if n >= 2 {
            slots[c] = sizes.len() as u32;
            sizes.push(n as usize);
        }
    }
    (slots, sizes)
}

/// The chunked counting-sort fill shared by [`lhs_groups`] and
/// [`partition1`]: every row whose code has a slot lands in its group.
/// Partials concatenate in range order, so row ids stay ascending. A
/// single range fills its groups in place at their final sizes.
fn fill_groups<C: CodeSource>(
    col: &C,
    pager: &C::Pager,
    slots: &[u32],
    sizes: &[usize],
) -> Result<Vec<Vec<usize>>, C::Error> {
    let ranges = chunk_ranges(col.rows());
    let presize = ranges.len() == 1;
    let parts = run_chunks(&ranges, |r| {
        let mut part: Vec<Vec<usize>> = sizes
            .iter()
            .map(|&n| Vec::with_capacity(if presize { n } else { 0 }))
            .collect();
        stream_range(&[col], pager, r, |base, s| {
            for (i, &c) in s[0].iter().enumerate() {
                let slot = slots[c as usize];
                if slot != u32::MAX {
                    part[slot as usize].push(base + i);
                }
            }
        })?;
        Ok(part)
    });
    let groups = merge(parts, |acc, part| {
        for (g, p) in acc.iter_mut().zip(part) {
            g.extend(p);
        }
    })?;
    Ok(groups.unwrap_or_else(|| vec![Vec::new(); sizes.len()]))
}

/// Unions per-range row-group maps, in range order (row ids stay
/// ascending within each group).
fn merge_groups<K: std::hash::Hash + Eq, E>(
    parts: Vec<Result<FxHashMap<K, Vec<usize>>, E>>,
) -> Result<FxHashMap<K, Vec<usize>>, E> {
    let map = merge(parts, |acc, part| {
        for (k, v) in part {
            acc.entry(k).or_default().extend(v);
        }
    })?;
    Ok(map.unwrap_or_default())
}

/// The groups of two or more rows, sorted (rows arrive ascending within
/// each group; only the outer order needs normalizing).
fn sorted_groups<K>(map: FxHashMap<K, Vec<usize>>) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
    groups.sort();
    groups
}

/// The distinct non-NULL projected code tuples (SQL semantics: rows
/// with a NULL among the projection are dropped) — `‖r[cols]‖` is its
/// length, and [`decode_set_cols`] recovers the exact
/// [`Table::distinct_projection`] result. Set contents do not depend
/// on how the scan was split; only insertion order does, which no
/// consumer observes.
pub fn distinct_codes<C: CodeSource>(
    cols: &[&C],
    pager: &C::Pager,
    rows: usize,
) -> Result<EncodedSet, C::Error> {
    match cols {
        [] => {
            // π_∅ is {[]} on a non-empty table, {} on an empty one
            // (matching the Value-based reference).
            let mut s: FxHashSet<Box<[u32]>> = FxHashSet::default();
            if rows > 0 {
                s.insert(Box::from([]));
            }
            Ok(EncodedSet::Wide(s))
        }
        [c] => Ok(EncodedSet::Unary {
            card: c.dict().cardinality() as u32,
        }),
        [ca, cb] => {
            let domain = ca.dict().cardinality() as u64 * cb.dict().cardinality() as u64;
            let parts = run_chunks(&chunk_ranges(rows), |r| {
                let cap = domain.min((r.len() * PAGE_CODES).min(rows) as u64) as usize;
                let mut set: FxHashSet<u64> =
                    FxHashSet::with_capacity_and_hasher(cap, Default::default());
                stream_range(cols, pager, r, |_, s| {
                    for (&x, &y) in s[0].iter().zip(s[1]) {
                        if x != NULL_CODE && y != NULL_CODE {
                            set.insert(pack2(x, y));
                        }
                    }
                })?;
                Ok(set)
            });
            let set = merge(parts, |acc, part| acc.extend(part))?;
            Ok(EncodedSet::Packed(set.unwrap_or_default()))
        }
        _ => {
            let parts = run_chunks(&chunk_ranges(rows), |r| {
                let mut set: FxHashSet<Box<[u32]>> = FxHashSet::default();
                let mut scratch: Vec<u32> = vec![0; cols.len()];
                stream_range(cols, pager, r, |_, s| {
                    'rows: for i in 0..s[0].len() {
                        for (k, c) in scratch.iter_mut().zip(s) {
                            if c[i] == NULL_CODE {
                                continue 'rows;
                            }
                            *k = c[i];
                        }
                        // Probe by slice first so duplicates allocate nothing.
                        if !set.contains(scratch.as_slice()) {
                            set.insert(scratch.clone().into_boxed_slice());
                        }
                    }
                })?;
                Ok(set)
            });
            let set = merge(parts, |acc, part| acc.extend(part))?;
            Ok(EncodedSet::Wide(set.unwrap_or_default()))
        }
    }
}

/// Row-index groups (size ≥ 2) agreeing on `cols` under SQL semantics
/// — rows with a NULL among the projection are skipped. Indices
/// ascending within a group, groups sorted: the contract of
/// [`crate::backend::CountBackend::lhs_groups`]. Unary group sizes
/// come from the dictionary's fused counts, so singleton codes — the
/// common case on key-like columns — never allocate a group.
pub fn lhs_groups<C: CodeSource>(
    cols: &[&C],
    pager: &C::Pager,
    rows: usize,
) -> Result<Vec<Vec<usize>>, C::Error> {
    match cols {
        [] => {
            // No attributes, no NULLs to skip: all rows agree.
            Ok(if rows >= 2 {
                vec![(0..rows).collect()]
            } else {
                Vec::new()
            })
        }
        [col] => {
            let counts = code_counts(*col, pager)?;
            // slots[NULL_CODE] stays MAX (NULL rows never group), so
            // the fill pass needs no NULL check.
            let (slots, sizes) = group_slots(&counts, true);
            let mut groups = fill_groups(*col, pager, &slots, &sizes)?;
            groups.sort();
            Ok(groups)
        }
        [_, _] => {
            let parts = run_chunks(&chunk_ranges(rows), |r| {
                let mut map: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
                stream_range(cols, pager, r, |base, s| {
                    for (i, (&x, &y)) in s[0].iter().zip(s[1]).enumerate() {
                        if x != NULL_CODE && y != NULL_CODE {
                            map.entry(pack2(x, y)).or_default().push(base + i);
                        }
                    }
                })?;
                Ok(map)
            });
            Ok(sorted_groups(merge_groups(parts)?))
        }
        _ => {
            let parts = run_chunks(&chunk_ranges(rows), |r| {
                let mut map: FxHashMap<Box<[u32]>, Vec<usize>> = FxHashMap::default();
                let mut scratch: Vec<u32> = vec![0; cols.len()];
                stream_range(cols, pager, r, |base, s| {
                    'rows: for i in 0..s[0].len() {
                        for (k, c) in scratch.iter_mut().zip(s) {
                            if c[i] == NULL_CODE {
                                continue 'rows;
                            }
                            *k = c[i];
                        }
                        if let Some(g) = map.get_mut(scratch.as_slice()) {
                            g.push(base + i);
                        } else {
                            map.insert(scratch.clone().into_boxed_slice(), vec![base + i]);
                        }
                    }
                })?;
                Ok(map)
            });
            Ok(sorted_groups(merge_groups(parts)?))
        }
    }
}

/// The unary stripped partition `π_col` (mining convention:
/// NULL = NULL, the NULL rows forming a class of their own). Equals
/// [`StrippedPartition::for_attribute`]. Class sizes come from the
/// dictionary's fused counts, so stripped singleton classes never
/// allocate and the kernel is a single fill pass.
pub fn partition1<C: CodeSource>(col: &C, pager: &C::Pager) -> Result<StrippedPartition, C::Error> {
    let counts = code_counts(col, pager)?;
    let (slots, sizes) = group_slots(&counts, false);
    let mut classes = fill_groups(col, pager, &slots, &sizes)?;
    classes.sort();
    Ok(StrippedPartition {
        classes,
        rows: col.rows(),
    })
}

/// A fully dictionary-encoded table: one shared [`ColumnDict`] per
/// attribute, resident.
///
/// Immutable and `Sync` after construction, so parallel workers share
/// the codes read-only. Whole-table consumers (TANE, SPIDER, key
/// discovery) use this; per-projection consumers go through a
/// counting backend's column cache.
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

    /// Unary stripped partition; see [`partition1`]. Resident codes
    /// cannot fail to read.
    pub fn partition1(&self, attr: AttrId) -> StrippedPartition {
        partition1(self.column(attr), &()).unwrap_or_else(|never| match never {})
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    /// Resident kernels cannot fail.
    fn ok<T>(r: Result<T, Infallible>) -> T {
        r.unwrap_or_else(|never| match never {})
    }

    fn cols<'a>(d: &'a DictTable, attrs: &[AttrId]) -> Vec<&'a ColumnDict> {
        attrs.iter().map(|&x| d.column(x)).collect()
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
            vec![a(0), a(1), a(0)],
            vec![],
        ] {
            assert_eq!(
                ok(distinct_codes(&cols(&d, &attrs), &(), d.rows())).len(),
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
            let c = cols(&d, &attrs);
            let set = ok(distinct_codes(&c, &(), d.rows()));
            assert_eq!(
                decode_set_cols(&c, &set),
                t.distinct_projection(&attrs),
                "attrs {attrs:?}"
            );
        }
    }

    #[test]
    fn partitions_match_reference() {
        let t = sample();
        let d = DictTable::build(&t);
        for x in [a(0), a(1)] {
            let expected = StrippedPartition::for_attribute(&t, x);
            assert_eq!(ok(partition1(d.column(x), &())), expected, "attr {x:?}");
            assert_eq!(d.partition1(x), expected, "attr {x:?}");
        }
    }

    #[test]
    fn lhs_groups_skip_null_rows() {
        let t = sample();
        let d = DictTable::build(&t);
        let groups = |attrs: &[AttrId]| ok(lhs_groups(&cols(&d, attrs), &(), d.rows()));
        // x: value 1 on rows {0,1}; NULL row 3 skipped.
        assert_eq!(groups(&[a(0)]), vec![vec![0, 1]]);
        // (x, y): only (1,'a') repeats.
        assert_eq!(groups(&[a(0), a(1)]), vec![vec![0, 1]]);
        assert_eq!(groups(&[a(0), a(1), a(0)]), vec![vec![0, 1]]);
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
        let (lc, rc) = (cols(&dl, &[a(0)]), cols(&dr, &[a(0)]));
        let (ls, rs) = (
            ok(distinct_codes(&lc, &(), dl.rows())),
            ok(distinct_codes(&rc, &(), dr.rows())),
        );
        assert_eq!(
            (ls.len(), rs.len(), intersect_count(&lc, &ls, &rc, &rs)),
            (4, 3, 2)
        );
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
        assert_eq!(
            ok(distinct_codes(&cols(&d, &[a(0)]), &(), d.rows())).len(),
            t.count_distinct(&[a(0)])
        );
        assert_eq!(
            d.partition1(a(0)),
            StrippedPartition::for_attribute(&t, a(0))
        );
    }

    #[test]
    fn empty_table_kernels() {
        let t = Table::new(2);
        let d = DictTable::build(&t);
        let (x, xy) = (cols(&d, &[a(0)]), cols(&d, &[a(0), a(1)]));
        assert_eq!(ok(distinct_codes(&x, &(), 0)).len(), 0);
        assert_eq!(ok(distinct_codes(&xy, &(), 0)).len(), 0);
        assert!(ok(distinct_codes::<ColumnDict>(&[], &(), 0)).is_empty());
        assert!(d.partition1(a(0)).is_key());
        assert!(ok(lhs_groups(&x, &(), 0)).is_empty());
        assert!(ok(lhs_groups(&xy, &(), 0)).is_empty());
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
        // must still partition correctly: the kernels recount.
        let t = sample();
        let built = ColumnDict::build(t.column(a(0)));
        let mut manual = built.clone();
        manual.counts = Vec::new();
        assert_eq!(ok(partition1(&manual, &())), ok(partition1(&built, &())));
        assert_eq!(
            ok(lhs_groups(&[&manual], &(), t.len())),
            ok(lhs_groups(&[&built], &(), t.len()))
        );
    }

    #[test]
    fn dict_sketch_is_exact() {
        let t = sample();
        let built = ColumnDict::build(t.column(a(0)));
        let sketch = built.sketch().expect("counts invariant holds");
        assert_eq!(sketch.distinct_exact(), built.cardinality());
        assert_eq!(sketch.null_count(), built.null_count());
        assert_eq!(sketch.rows(), built.rows());
        // The counts survive slimming (rows come from the per-code
        // counts, not the dropped code vector) and rehydration.
        assert_eq!(built.slim().sketch(), Some(sketch));
        assert_eq!(
            built.slim().rehydrate(built.codes().to_vec()).sketch(),
            Some(sketch)
        );
        // Broken counts invariant → no sketch (shortcuts stay sound).
        let mut manual = built.clone();
        manual.counts = Vec::new();
        assert!(manual.sketch().is_none());
        // A code no row carries (zero count) → no sketch.
        let unused = ColumnDict::from_parts(vec![Value::Int(1), Value::Int(2)], 0, vec![0, 1, 0]);
        assert!(unused.sketch().is_none());
    }
}
