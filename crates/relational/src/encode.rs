//! Dictionary columns and the one family of integer-code kernels
//! behind every `‖·‖` probe.
//!
//! Every statistic the paper's algorithms consume — distinct
//! projections for the three IND-Discovery cardinalities, LHS groups
//! for the `A → b` extension tests, stripped partitions for the mining
//! baselines — reduces to hashing and comparing projected tuples. A
//! table column is therefore stored as its dictionary ([`ColumnDict`]):
//! each cell is interned once, at load, into a dense `u32` code
//! (first-occurrence order, with **code 0 reserved for `NULL`**), and
//! every kernel afterwards runs on plain integers hashed with the
//! cheap [`crate::fasthash`] scheme. Nothing encodes a column again.
//!
//! A column's per-row codes are either resident or on the pages
//! streamed ingest wrote ([`crate::pages::PagedColumn`]); its
//! dictionary — decode table, encode tables, NULL count and exact
//! per-code counts — is always resident. Every row scan is one
//! [`fold`], which reads the codes in page-sized chunks, slices of a
//! resident vector or pages read through a [`BufferPool`], so both
//! storage modes share one serial scan loop and one answer. Kernels
//! that never touch per-row codes — [`code_translation`],
//! [`intersect_count`], [`decode_set_cols`] — read only the
//! dictionaries and the folds. `Value`-level readers decode cells
//! through [`ColumnDict::cell`] and [`ColumnDict::values`], which
//! borrow from the decode table and allocate nothing per resident
//! cell.
//!
//! Consequences of the encoding:
//!
//! * a unary `COUNT(DISTINCT a)` is the dictionary cardinality, `O(1)`;
//! * unary groupings (partitions, LHS groups) are a counting-sort fill
//!   over the code domain, sized from the per-code counts — no hashing
//!   at all;
//! * a multi-column tuple is a dense id ([`TupleIds`]): column 0's
//!   codes are the width-1 ids, and each further column folds
//!   `(id, code)`, packed into one `u64`, into the next width's ids.
//!   The distinct count is the last fold's size; LHS groups, join
//!   intersections, decoding, the g3 tally and key checks all read the
//!   same ids — no `Value` clones and no boxed tuple on any hot path;
//! * join intersections translate one side's codes into the other's
//!   through a per-position lookup table (codes are column-local),
//!   then look the translated tuples up in the other side's folds.
//!
//! NULL conventions are preserved exactly: the SQL kernels
//! ([`distinct_codes`], [`lhs_groups`], key checks) fold under
//! [`Nulls::Skip`], dropping rows whose projection touches code 0,
//! while the mining kernel ([`partition1`]) and the g3 tally
//! ([`tuple_keys`]) keep code 0 as an ordinary value equal to itself
//! ([`Nulls::Keep`]), mirroring [`crate::partitions`]. `NaN` floats
//! intern through
//! [`crate::value::OrdF64`]'s total order, so two NaNs with the same
//! payload share a code exactly when the `Value` kernels consider them
//! equal.
//!
//! A `ColumnDict` is written only through copy-on-write
//! ([`crate::table::Table`] holds each column behind an `Arc`), so one
//! column is shared read-only by every table version, database clone
//! and concurrent session that did not write it.

use crate::bufpool::BufferPool;
use crate::fasthash::FxHashMap;
use crate::pages::{PageError, PagedColumn, PAGE_CODES};
use crate::partitions::StrippedPartition;
use crate::sketch::ColumnSketch;
use crate::table::ProjKey;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Deref;
use std::sync::Arc;

/// The NULL sentinel code: row positions holding SQL `NULL` encode to
/// 0 in every [`ColumnDict`]; real values start at 1.
pub const NULL_CODE: u32 = 0;

/// The cell [`NULL_CODE`] decodes to.
const NULL: &Value = &Value::Null;

/// One table column: per-row dense codes, resident or on pages, plus
/// the dictionary that decodes (code → value) and encodes (value →
/// code) them and counts each code's rows.
///
/// Codes are assigned in first-occurrence order, so two columns built
/// from the same cell sequence hold the same codes and decode table.
/// The dictionary sits behind one `Arc`: a column sharing it (a
/// resident copy of paged codes, a copy about to be written) clones a
/// pointer, not the tables.
#[derive(Debug, Clone)]
pub struct ColumnDict {
    codes: Codes,
    tables: Arc<DictTables>,
}

/// Where a column's per-row codes live.
#[derive(Debug, Clone)]
enum Codes {
    /// In memory; `codes[i] == NULL_CODE` iff row `i` is NULL.
    Resident(Vec<u32>),
    /// On the pages streamed ingest wrote.
    Paged(Arc<PagedColumn>),
}

/// A column's dictionary: everything but the per-row codes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DictTables {
    /// Decode table: `values[(c - 1) as usize]` is the value of code
    /// `c ≥ 1`, in first-occurrence order.
    values: Vec<Value>,
    /// Encode tables (no entry for NULL).
    index: Index,
    /// Number of NULL rows.
    nulls: usize,
    /// Per-code occurrence counts: `counts[c]` is how many rows carry
    /// code `c` (`counts[0]` = NULL rows), kept by the interning loop,
    /// so the counting-sort kernels skip their sizes pass.
    counts: Vec<u64>,
}

/// The encode tables, one per kind of cell: an integer or a string is
/// looked up by itself, with no `Value` around it, and the entries
/// are 16 and 24 bytes instead of 32.
#[derive(Debug, Clone, Default, PartialEq)]
struct Index {
    ints: FxHashMap<i64, u32>,
    text: FxHashMap<Arc<str>, u32>,
    other: FxHashMap<Value, u32>,
}

impl Index {
    fn get(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Null => None,
            Value::Int(i) => self.ints.get(i),
            Value::Str(s) => self.text.get(&**s),
            _ => self.other.get(v),
        }
        .copied()
    }

    fn insert(&mut self, v: &Value, code: u32) {
        match v {
            Value::Int(i) => self.ints.insert(*i, code),
            Value::Str(s) => self.text.insert(Arc::clone(s), code),
            _ => self.other.insert(v.clone(), code),
        };
    }
}

impl DictTables {
    fn new() -> Self {
        DictTables {
            values: Vec::new(),
            index: Index::default(),
            nulls: 0,
            counts: vec![0],
        }
    }

    /// A dictionary from its serialized parts — the spill-cache load
    /// path ([`crate::spill`]). The encode tables are rebuilt from the
    /// decode table; `counts` must follow the
    /// [`ColumnDict::code_counts`] convention.
    pub(crate) fn from_parts(values: Vec<Value>, nulls: usize, counts: Vec<u64>) -> DictTables {
        let mut index = Index::default();
        for (i, v) in values.iter().enumerate() {
            index.insert(v, i as u32 + 1);
        }
        DictTables {
            values,
            index,
            nulls,
            counts,
        }
    }

    /// The code of `v`, added with a fresh code on first sight.
    #[inline]
    fn intern(&mut self, v: &Value) -> u32 {
        match v {
            Value::Null => {
                self.nulls += 1;
                self.counts[NULL_CODE as usize] += 1;
                NULL_CODE
            }
            Value::Int(i) => self.intern_int(*i),
            Value::Str(s) => self.intern_text(s),
            _ => {
                let code = match self.index.other.get(v) {
                    Some(&code) => code,
                    None => self.add(v.clone()),
                };
                self.counts[code as usize] += 1;
                code
            }
        }
    }

    #[inline]
    fn intern_int(&mut self, i: i64) -> u32 {
        let code = match self.index.ints.get(&i) {
            Some(&code) => code,
            None => self.add(Value::Int(i)),
        };
        self.counts[code as usize] += 1;
        code
    }

    #[inline]
    fn intern_text(&mut self, s: &str) -> u32 {
        let code = match self.index.text.get(s) {
            Some(&code) => code,
            None => self.add(Value::str(s)),
        };
        self.counts[code as usize] += 1;
        code
    }

    /// Gives the new value `v` the next code.
    fn add(&mut self, v: Value) -> u32 {
        let code = self.values.len() as u32 + 1;
        self.index.insert(&v, code);
        self.values.push(v);
        self.counts.push(0);
        code
    }

    /// Releases the slack a presized or grown table holds, so a kept
    /// dictionary is sized by its cardinality.
    fn shrink_to_fit(&mut self) {
        self.values.shrink_to_fit();
        self.counts.shrink_to_fit();
        self.index.ints.shrink_to_fit();
        self.index.text.shrink_to_fit();
        self.index.other.shrink_to_fit();
    }

    #[inline]
    fn decode(&self, code: u32) -> &Value {
        match code {
            NULL_CODE => NULL,
            c => &self.values[c as usize - 1],
        }
    }
}

/// Incremental column interner: the one way a column is encoded.
///
/// Both ingests ([`crate::csv`]) intern one cell at a time as records
/// arrive; the in-memory one keeps the codes, the streamed one appends
/// them to a page file. A text cell interns by its text
/// ([`DictBuilder::intern_text`]) and an integer by its value
/// ([`DictBuilder::intern_int`]), so neither makes a `Value` unless it
/// is new.
#[derive(Debug)]
pub struct DictBuilder {
    tables: DictTables,
}

impl Default for DictBuilder {
    fn default() -> Self {
        DictBuilder::new()
    }
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        DictBuilder {
            tables: DictTables::new(),
        }
    }

    /// Interns one cell, returning its code ([`NULL_CODE`] for NULL).
    /// Clones `v` only on first occurrence, and a string's clone
    /// shares its allocation.
    #[inline]
    pub fn intern(&mut self, v: &Value) -> u32 {
        self.tables.intern(v)
    }

    /// Interns one text cell given by its text: the code
    /// [`DictBuilder::intern`] gives `Value::Str` of the same text. A
    /// string seen before costs one lookup; a new one is allocated once
    /// and shared by the encode and decode tables.
    #[inline]
    pub fn intern_text(&mut self, s: &str) -> u32 {
        self.tables.intern_text(s)
    }

    /// Interns one integer cell: the code [`DictBuilder::intern`] gives
    /// `Value::Int(i)`.
    #[inline]
    pub fn intern_int(&mut self, i: i64) -> u32 {
        self.tables.intern_int(i)
    }

    /// The column of `codes`, the codes this builder handed out, in
    /// row order.
    pub fn finish(self, codes: Vec<u32>) -> ColumnDict {
        self.finish_with(Codes::Resident(codes))
    }

    /// The column whose codes this builder handed out to `pages`.
    pub fn finish_paged(self, pages: Arc<PagedColumn>) -> ColumnDict {
        self.finish_with(Codes::Paged(pages))
    }

    fn finish_with(mut self, codes: Codes) -> ColumnDict {
        self.tables.shrink_to_fit();
        ColumnDict {
            codes,
            tables: Arc::new(self.tables),
        }
    }
}

/// One page-sized chunk of a column's codes, borrowed from a resident
/// vector or pinned from the buffer pool while a kernel reads it.
pub(crate) enum Chunk<'a> {
    Resident(&'a [u32]),
    Page(Arc<Vec<u32>>),
}

impl Deref for Chunk<'_> {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            Chunk::Resident(codes) => codes,
            Chunk::Page(page) => page,
        }
    }
}

impl ColumnDict {
    /// Interns one column of values.
    pub fn build(column: &[Value]) -> Self {
        let mut b = DictBuilder::new();
        let codes = column.iter().map(|v| b.intern(v)).collect();
        b.finish(codes)
    }

    /// The column over `pages` whose dictionary is `tables` — the
    /// spill-cache load path.
    pub(crate) fn paged(tables: DictTables, pages: Arc<PagedColumn>) -> Self {
        ColumnDict {
            codes: Codes::Paged(pages),
            tables: Arc::new(tables),
        }
    }

    /// Number of distinct non-NULL values — the unary
    /// `COUNT(DISTINCT ·)` in `O(1)`.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.tables.values.len()
    }

    /// Does the column contain any NULL?
    #[inline]
    pub fn has_null(&self) -> bool {
        self.tables.nulls > 0
    }

    /// Number of NULL rows.
    #[inline]
    pub fn null_count(&self) -> usize {
        self.tables.nulls
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        match &self.codes {
            Codes::Resident(codes) => codes.len(),
            Codes::Paged(pages) => pages.rows(),
        }
    }

    /// The spilled pages holding the codes, when they are not
    /// resident.
    pub fn pages(&self) -> Option<&Arc<PagedColumn>> {
        match &self.codes {
            Codes::Resident(_) => None,
            Codes::Paged(pages) => Some(pages),
        }
    }

    /// The per-row codes (0 = NULL): borrowed when resident, read from
    /// the column's own page file otherwise.
    ///
    /// # Panics
    ///
    /// When a page cannot be read, naming the relation and the file.
    pub fn codes(&self) -> Cow<'_, [u32]> {
        match &self.codes {
            Codes::Resident(codes) => Cow::Borrowed(codes),
            Codes::Paged(pages) => Cow::Owned(pages.read_all_or_die()),
        }
    }

    /// The column with its codes resident: this one, shared, when they
    /// are; otherwise a copy sharing its dictionary, with the codes read
    /// through `pool`.
    pub fn resident(self: &Arc<Self>, pool: &BufferPool) -> Result<Arc<ColumnDict>, PageError> {
        match &self.codes {
            Codes::Resident(_) => Ok(Arc::clone(self)),
            Codes::Paged(pages) => Ok(Arc::new(ColumnDict {
                codes: Codes::Resident(pages.read_all(pool)?),
                tables: Arc::clone(&self.tables),
            })),
        }
    }

    /// This column with its codes in memory, paged codes read from the
    /// column's own page file; the dictionary is shared.
    ///
    /// # Panics
    ///
    /// When a page cannot be read, naming the relation and the file.
    pub fn into_resident(self) -> ColumnDict {
        match &self.codes {
            Codes::Resident(_) => self,
            Codes::Paged(pages) => ColumnDict {
                codes: Codes::Resident(pages.read_all_or_die()),
                tables: self.tables,
            },
        }
    }

    /// Row `row`'s cell, borrowed from the decode table.
    ///
    /// # Panics
    ///
    /// When `row` is out of bounds, or the page holding a paged row
    /// cannot be read (naming the relation and the file).
    pub fn cell(&self, row: usize) -> &Value {
        let code = match &self.codes {
            Codes::Resident(codes) => codes[row],
            Codes::Paged(pages) => pages.read_or_die(row / PAGE_CODES)[row % PAGE_CODES],
        };
        self.tables.decode(code)
    }

    /// Every cell in row order, borrowed from the decode table: the
    /// accessor `Value`-level readers scan a column with. A paged
    /// column is read one page at a time from its own page file.
    ///
    /// # Panics
    ///
    /// As [`ColumnDict::cell`].
    pub fn values(&self) -> impl Iterator<Item = &Value> + '_ {
        let chunks = match &self.codes {
            Codes::Resident(codes) => codes.len().div_ceil(PAGE_CODES),
            Codes::Paged(pages) => pages.file().pages() as usize,
        };
        (0..chunks).flat_map(move |i| {
            let chunk: Cow<'_, [u32]> = match &self.codes {
                Codes::Resident(codes) => {
                    Cow::Borrowed(&codes[i * PAGE_CODES..((i + 1) * PAGE_CODES).min(codes.len())])
                }
                Codes::Paged(pages) => Cow::Owned(pages.read_or_die(i)),
            };
            (0..chunk.len()).map(move |j| self.tables.decode(chunk[j]))
        })
    }

    /// Chunk `i`'s codes: rows `i * PAGE_CODES ..` up to the next page
    /// boundary (or the last row), paged ones read through `pool`.
    pub(crate) fn chunk<'a>(&'a self, pool: &BufferPool, i: usize) -> Result<Chunk<'a>, PageError> {
        match &self.codes {
            Codes::Resident(codes) => {
                let start = i.saturating_mul(PAGE_CODES).min(codes.len());
                let end = start.saturating_add(PAGE_CODES).min(codes.len());
                Ok(Chunk::Resident(&codes[start..end]))
            }
            Codes::Paged(pages) => pages.page(pool, i as u32).map(Chunk::Page),
        }
    }

    /// Appends one cell — the write path of [`crate::table::Table`].
    /// Paged codes are brought into memory first, and a dictionary
    /// another column shares is copied before it takes a new value.
    pub(crate) fn push(&mut self, v: &Value) {
        if let Codes::Paged(pages) = &self.codes {
            self.codes = Codes::Resident(pages.read_all_or_die());
        }
        let code = Arc::make_mut(&mut self.tables).intern(v);
        if let Codes::Resident(codes) = &mut self.codes {
            codes.push(code);
        }
    }

    /// The column of the cells at `rows`, in that order (repeats
    /// allowed), with dense first-occurrence codes over the decode
    /// values of this one: Restruct's gather of a split-off relation.
    /// A gathered string shares its source's allocation.
    pub fn gather(&self, rows: &[usize]) -> ColumnDict {
        let codes = self.codes();
        let mut remap: Vec<u32> = vec![u32::MAX; self.cardinality() + 1];
        remap[NULL_CODE as usize] = NULL_CODE;
        let mut tables = DictTables::new();
        let gathered = rows
            .iter()
            .map(|&i| {
                let old = codes[i] as usize;
                let code = match remap[old] {
                    u32::MAX => {
                        let code = tables.add(self.tables.values[old - 1].clone());
                        remap[old] = code;
                        code
                    }
                    code => code,
                };
                if code == NULL_CODE {
                    tables.nulls += 1;
                }
                tables.counts[code as usize] += 1;
                code
            })
            .collect();
        tables.shrink_to_fit();
        ColumnDict {
            codes: Codes::Resident(gathered),
            tables: Arc::new(tables),
        }
    }

    /// The dictionary, for tests that compare two.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> &DictTables {
        &self.tables
    }

    /// The code of `v` in this column, or [`NULL_CODE`] when `v` is
    /// NULL or absent from the column.
    #[inline]
    pub fn code_of(&self, v: &Value) -> u32 {
        self.tables.index.get(v).unwrap_or(NULL_CODE)
    }

    /// Decodes a non-NULL code back into its value.
    #[inline]
    pub fn value_of(&self, code: u32) -> Option<&Value> {
        if code == NULL_CODE {
            None
        } else {
            self.tables.values.get(code as usize - 1)
        }
    }

    /// The distinct non-NULL values, in first-occurrence (code) order.
    #[inline]
    pub fn distinct_values(&self) -> &[Value] {
        &self.tables.values
    }

    /// Per-code occurrence counts: `code_counts()[c]` is how many rows
    /// carry code `c`, with `code_counts()[0]` the NULL count. Length
    /// is `cardinality() + 1`; kernels treat any other length as
    /// "counts unavailable" and fall back to a counting pass.
    #[inline]
    pub fn code_counts(&self) -> &[u64] {
        &self.tables.counts
    }

    /// The column's exact row, NULL and distinct counts, read off the
    /// per-code counts (O(cardinality), on every call). `None` when the
    /// dictionary cannot vouch for exactness: the fused-counts
    /// invariant is broken (missing counts, or a code no row carries),
    /// so `cardinality()` may over-count the live column and a
    /// shortcut taken on it would be unsound.
    pub fn sketch(&self) -> Option<ColumnSketch> {
        let t = &*self.tables;
        if t.counts.len() != t.values.len() + 1 {
            return None;
        }
        if t.counts.iter().skip(1).any(|&c| c == 0) {
            return None;
        }
        let rows = t.counts.iter().sum::<u64>() as usize;
        Some(ColumnSketch::new(rows, t.nulls, t.values.len()))
    }
}

/// Two columns are equal when they hold the same cells in the same
/// order; their codes and decode tables then agree too, since both
/// follow first occurrence.
impl PartialEq for ColumnDict {
    fn eq(&self, other: &Self) -> bool {
        self.rows() == other.rows() && self.values().eq(other.values())
    }
}

/// Per-key counters for the plurality of one row group at a time:
/// sized once for a key domain, reset after every group, so no group
/// allocates.
#[derive(Debug)]
pub struct Tally {
    counts: Vec<u32>,
}

impl Tally {
    /// Counters for keys `0..count`.
    pub fn new(count: usize) -> Tally {
        Tally {
            counts: vec![0; count],
        }
    }

    /// The plurality key of `group` (non-empty, ascending rows): the
    /// row where a most frequent key first occurs — ties go to the
    /// earliest first occurrence — and how often that key occurs.
    pub fn plurality(&mut self, group: &[usize], keys: &[u32]) -> (usize, usize) {
        let mut max = 0;
        for &i in group {
            let n = &mut self.counts[keys[i] as usize];
            *n += 1;
            max = max.max(*n);
        }
        let row = group
            .iter()
            .copied()
            .find(|&i| self.counts[keys[i] as usize] == max)
            .unwrap_or(group[0]);
        for &i in group {
            self.counts[keys[i] as usize] = 0;
        }
        (row, max as usize)
    }
}

// ---- the tuple-id fold ---------------------------------------------
//
// Every row-scan kernel reads its columns in page-sized chunks
// (`ColumnDict::chunk`), streamed once, in lockstep, through `fold`.
// Multi-column kernels take the projected columns as a slice (repeats
// allowed — a projection list can name a column twice) plus the
// table's row count, which disambiguates the empty projection.

/// What a fold does with a row holding NULL in one of its columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nulls {
    /// SQL semantics (counts, joins, LHS groups, keys): the row's id
    /// is 0 and no fold sees it.
    Skip,
    /// The g3 tally and the mining partitions: NULL is a value like
    /// any other.
    Keep,
}

/// The distinct tuples of a list of columns as dense ids: the one
/// representation of a multi-column tuple.
///
/// Column 0's codes are the width-1 ids. Each further column folds
/// `(id, code)`, packed into a `u64`, into the next width's ids through
/// one map, which hands them out from 1 in first-occurrence order, so
/// the ids of any width run over `0..=len`. Under [`Nulls::Skip`], id 0
/// marks a row holding a NULL (at width 1, the NULL code). The tuple of
/// no columns (the empty projection) is id 1 on every row.
#[derive(Debug)]
pub struct TupleIds {
    /// Distinct width-1 ids: column 0's cardinality (at width 0, 1 on
    /// a non-empty table).
    first: usize,
    /// `folds[k]`: the ids of the first `k + 2` columns, keyed by the
    /// id of the first `k + 1` and the code of column `k + 1`.
    folds: Vec<FxHashMap<u64, u32>>,
    /// Rows that hold an id.
    rows: usize,
}

impl TupleIds {
    /// Number of distinct tuples — `‖r[cols]‖` under [`Nulls::Skip`].
    pub fn len(&self) -> usize {
        self.folds.last().map_or(self.first, FxHashMap::len)
    }

    /// Is there no tuple?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows that hold an id: under [`Nulls::Skip`], those without a
    /// NULL among the columns; every row under [`Nulls::Keep`].
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// What [`fold`] hands a chunk's ids to, with the chunk's first row.
pub type OnChunk<'a> = &'a mut dyn FnMut(usize, &[u32]);

#[inline]
fn pack2(hi: u32, lo: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

/// Folds the tuples of `cols` over a `rows`-row table into
/// [`TupleIds`], reading the columns in lockstep page-sized chunks —
/// slices of resident codes, or pages pinned through `pool` — and
/// handing each chunk's full-width ids, with the chunk's first row, to
/// `each` in row order. Each fold's map is presized for every row to
/// differ, or for every tuple the columns' cardinalities allow when
/// that is fewer. With no `each`, a tuple of fewer than two columns is
/// read off the dictionary and nothing is scanned.
///
/// Holding a chunk's pages across the fold keeps them alive even if
/// the pool evicts them meanwhile, so a capacity-1 pool is slow but
/// never wrong.
pub fn fold(
    cols: &[&ColumnDict],
    pool: &BufferPool,
    rows: usize,
    nulls: Nulls,
    mut each: Option<OnChunk<'_>>,
) -> Result<TupleIds, PageError> {
    let first = cols
        .first()
        .map_or(usize::from(rows > 0), |c| c.cardinality());
    let mut bound = first.saturating_add(1);
    let mut folds: Vec<FxHashMap<u64, u32>> = cols
        .iter()
        .skip(1)
        .map(|c| {
            bound = bound.saturating_mul(c.cardinality() + 1);
            FxHashMap::with_capacity_and_hasher(bound.min(rows), Default::default())
        })
        .collect();
    let mut kept = match (nulls, cols) {
        (Nulls::Skip, [col]) => rows - col.null_count(),
        (Nulls::Skip, [_, _, ..]) => 0,
        _ => rows,
    };
    if folds.is_empty() && each.is_none() {
        return Ok(TupleIds {
            first,
            folds,
            rows: kept,
        });
    }
    let mut ids: Vec<u32> = Vec::new();
    for i in 0..rows.div_ceil(PAGE_CODES) {
        let chunks: Vec<Chunk<'_>> = cols
            .iter()
            .map(|c| c.chunk(pool, i))
            .collect::<Result<_, _>>()?;
        // Lockstep chunks of one table have equal lengths; trimming to
        // the shortest keeps every index loop in bounds regardless.
        let n = chunks
            .iter()
            .map(|c| c.len())
            .fold(PAGE_CODES.min(rows - i * PAGE_CODES), usize::min);
        let chunk_ids: &[u32] = match chunks.split_first() {
            None => {
                ids.clear();
                ids.resize(n, 1);
                &ids
            }
            Some((head, [])) => &head[..n],
            Some((head, rest)) => {
                ids.clear();
                ids.extend_from_slice(&head[..n]);
                for (fold, codes) in folds.iter_mut().zip(rest) {
                    for (id, &code) in ids.iter_mut().zip(codes.iter()) {
                        *id = if nulls == Nulls::Skip && (*id == 0 || code == NULL_CODE) {
                            0
                        } else {
                            let next = fold.len() as u32 + 1;
                            *fold.entry(pack2(*id, code)).or_insert(next)
                        };
                    }
                }
                if nulls == Nulls::Skip {
                    kept += ids.iter().filter(|&&id| id != 0).count();
                }
                &ids
            }
        };
        if let Some(each) = each.as_mut() {
            each(i * PAGE_CODES, chunk_ids);
        }
    }
    Ok(TupleIds {
        first,
        folds,
        rows: kept,
    })
}

/// The distinct non-NULL projected code tuples (SQL semantics: rows
/// with a NULL among the projection are dropped) — `‖r[cols]‖` is
/// their number, and [`decode_set_cols`] recovers the exact
/// [`crate::table::Table::distinct_projection`] result. One column's
/// is its dictionary cardinality, read in `O(1)`.
pub fn distinct_codes(
    cols: &[&ColumnDict],
    pool: &BufferPool,
    rows: usize,
) -> Result<TupleIds, PageError> {
    fold(cols, pool, rows, Nulls::Skip, None)
}

/// One key per row for the cell tuple of `cols` (NULL a value like any
/// other), equal for two rows exactly when each column's codes are,
/// plus the number of keys (the keys run over `0..count`): one
/// column's codes as they are, a wider tuple's [`fold`]ed ids. The g3
/// tally's columns come from
/// [`crate::backend::CountBackend::column_dict`] with their codes
/// resident, so the fold's own one-page pool reads nothing.
pub fn tuple_keys(
    cols: &[Arc<ColumnDict>],
    rows: usize,
) -> Result<(Cow<'_, [u32]>, usize), PageError> {
    if let [col] = cols {
        return Ok((col.codes(), col.cardinality() + 1));
    }
    let cols: Vec<&ColumnDict> = cols.iter().map(|c| &**c).collect();
    let mut keys: Vec<u32> = Vec::with_capacity(rows);
    let pool = BufferPool::with_capacity_pages(1);
    let mut collect = |_: usize, ids: &[u32]| keys.extend_from_slice(ids);
    let tuples = fold(&cols, &pool, rows, Nulls::Keep, Some(&mut collect))?;
    Ok((Cow::Owned(keys), tuples.len() + 1))
}

/// Decodes the [`distinct_codes`] of `cols` back into `Value` tuples —
/// equals [`crate::table::Table::distinct_projection`] — walking the
/// folds out from column 0's values. Reads only the decode tables.
pub fn decode_set_cols(cols: &[&ColumnDict], set: &TupleIds) -> HashSet<ProjKey> {
    let decode = |col: &ColumnDict, code: u32| col.value_of(code).cloned().unwrap_or(Value::Null);
    let Some((first, rest)) = cols.split_first() else {
        return (0..set.len()).map(|_| Vec::new()).collect();
    };
    // `tuples[id]`: the values of the prefix with that id (slot 0, no
    // tuple, is dropped at the end).
    let mut tuples: Vec<ProjKey> = (0..=set.first as u32)
        .map(|code| vec![decode(first, code)])
        .collect();
    for (fold, col) in set.folds.iter().zip(rest) {
        let mut next: Vec<ProjKey> = vec![Vec::new(); fold.len() + 1];
        for (&key, &id) in fold {
            let mut tuple = tuples[(key >> 32) as usize].clone();
            tuple.push(decode(col, key as u32));
            next[id as usize] = tuple;
        }
        tuples = next;
    }
    tuples.into_iter().skip(1).collect()
}

// ---- groupings -----------------------------------------------------

/// Per-code occurrence counts of `col` (index 0 = NULL): the
/// dictionary's fused counts ([`ColumnDict::code_counts`]) when they
/// hold, else one counting pass (any other length means "unavailable"
/// by convention).
fn code_counts<'a>(col: &'a ColumnDict, pool: &BufferPool) -> Result<Cow<'a, [u64]>, PageError> {
    let fused = col.code_counts();
    if fused.len() == col.cardinality() + 1 {
        return Ok(Cow::Borrowed(fused));
    }
    let mut counts: Vec<u64> = vec![0; col.cardinality() + 1];
    let mut count = |_: usize, codes: &[u32]| {
        for &c in codes {
            counts[c as usize] += 1;
        }
    };
    fold(&[col], pool, col.rows(), Nulls::Keep, Some(&mut count))?;
    Ok(Cow::Owned(counts))
}

/// The counting sort shared by [`lhs_groups`] and [`partition1`]: every
/// id (a code, or a folded tuple id) that `counts` counts twice or
/// more — other than id 0 when `skip_zero` — is a group allocated at
/// its final size. Rows arrive in order, so row ids stay ascending, and
/// an id counted once never allocates.
struct Groups {
    /// `slots[id]`: the id's group, `u32::MAX` when it forms none.
    slots: Vec<u32>,
    groups: Vec<Vec<usize>>,
}

impl Groups {
    fn new(counts: &[u64], skip_zero: bool) -> Groups {
        let mut slots: Vec<u32> = vec![u32::MAX; counts.len()];
        let mut sizes: Vec<usize> = Vec::new();
        for (id, &n) in counts.iter().enumerate().skip(usize::from(skip_zero)) {
            if n >= 2 {
                slots[id] = sizes.len() as u32;
                sizes.push(n as usize);
            }
        }
        // Collected from the sizes, so the kept groups hold no slack.
        let groups = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        Groups { slots, groups }
    }

    /// Files rows `base..` by their `ids`.
    fn fill(&mut self, base: usize, ids: &[u32]) {
        for (i, &id) in ids.iter().enumerate() {
            let slot = self.slots[id as usize];
            if slot != u32::MAX {
                self.groups[slot as usize].push(base + i);
            }
        }
    }

    /// The groups, sorted (only the outer order needs normalizing).
    fn sorted(mut self) -> Vec<Vec<usize>> {
        self.groups.sort();
        self.groups
    }
}

/// Row-index groups (size ≥ 2) agreeing on `cols` under SQL semantics
/// — rows with a NULL among the projection are skipped. Indices
/// ascending within a group, groups sorted: the contract of
/// [`crate::backend::CountBackend::lhs_groups`]. One column's group
/// sizes come from the dictionary's fused counts, so singleton codes —
/// the common case on key-like columns — never allocate a group; a
/// wider tuple's come from its [`fold`]ed ids.
pub fn lhs_groups(
    cols: &[&ColumnDict],
    pool: &BufferPool,
    rows: usize,
) -> Result<Vec<Vec<usize>>, PageError> {
    if let [col] = cols {
        // slots[NULL_CODE] stays MAX (NULL rows never group), so the
        // fill needs no NULL check.
        let mut groups = Groups::new(&code_counts(col, pool)?, true);
        let mut fill = |base: usize, codes: &[u32]| groups.fill(base, codes);
        fold(cols, pool, rows, Nulls::Skip, Some(&mut fill))?;
        return Ok(groups.sorted());
    }
    let mut ids: Vec<u32> = Vec::with_capacity(rows);
    let tuples = fold(
        cols,
        pool,
        rows,
        Nulls::Skip,
        Some(&mut |_, chunk| ids.extend_from_slice(chunk)),
    )?;
    let mut counts: Vec<u64> = vec![0; tuples.len() + 1];
    for &id in &ids {
        counts[id as usize] += 1;
    }
    let mut groups = Groups::new(&counts, true);
    groups.fill(0, &ids);
    Ok(groups.sorted())
}

/// The unary stripped partition `π_col` (mining convention:
/// NULL = NULL, the NULL rows forming a class of their own). Equals
/// [`StrippedPartition::for_attribute`]. Class sizes come from the
/// dictionary's fused counts, so stripped singleton classes never
/// allocate and the kernel is a single fill pass.
pub fn partition1(col: &ColumnDict, pool: &BufferPool) -> Result<StrippedPartition, PageError> {
    let mut classes = Groups::new(&code_counts(col, pool)?, false);
    let mut fill = |base: usize, codes: &[u32]| classes.fill(base, codes);
    fold(&[col], pool, col.rows(), Nulls::Keep, Some(&mut fill))?;
    Ok(StrippedPartition {
        classes: classes.sorted(),
        rows: col.rows(),
    })
}

// ---- joins ---------------------------------------------------------

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

/// `|π_L(left) ∩ π_R(right)|` — the `N_kl` of the paper — from the
/// [`distinct_codes`] of the two sides' projected columns, which have
/// equal arity ([`crate::counting::EquiJoin::validate`]'s invariant).
/// One column a side probes the larger dictionary with the smaller's
/// values. A wider side's tuples are translated one width at a time:
/// each of the smaller side's ids maps, through its prefix's mapped id
/// and [`code_translation`] of its last code, to the larger side's id
/// of the same values in the larger side's fold, or to 0 when the
/// larger side has no such tuple. Neither side reads a per-row code.
pub fn intersect_count(
    lcols: &[&ColumnDict],
    lset: &TupleIds,
    rcols: &[&ColumnDict],
    rset: &TupleIds,
) -> usize {
    debug_assert_eq!(lcols.len(), rcols.len(), "equi-join sides of unequal arity");
    let ((small_cols, small), (large_cols, large)) = if lset.len() <= rset.len() {
        ((lcols, lset), (rcols, rset))
    } else {
        ((rcols, rset), (lcols, lset))
    };
    let (Some((s0, srest)), Some((l0, lrest))) =
        (small_cols.split_first(), large_cols.split_first())
    else {
        // The empty tuple is on both sides, or the intersection is empty.
        return small.len().min(large.len());
    };
    if srest.is_empty() {
        return s0
            .distinct_values()
            .iter()
            .filter(|v| l0.code_of(v) != NULL_CODE)
            .count();
    }
    // `ids[s]`: the larger side's id of the smaller side's prefix `s`.
    let mut ids = code_translation(s0, l0);
    for ((sfold, lfold), (scol, lcol)) in small
        .folds
        .iter()
        .zip(&large.folds)
        .zip(srest.iter().zip(lrest))
    {
        let codes = code_translation(scol, lcol);
        let mut next: Vec<u32> = vec![0; sfold.len() + 1];
        for (&key, &id) in sfold {
            let (prefix, code) = (ids[(key >> 32) as usize], codes[key as u32 as usize]);
            if prefix != 0 && code != NULL_CODE {
                next[id as usize] = lfold.get(&pack2(prefix, code)).copied().unwrap_or(0);
            }
        }
        ids = next;
    }
    ids.iter().filter(|&&id| id != 0).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::table::Table;

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    /// Resident codes always read.
    fn ok<T>(r: Result<T, PageError>) -> T {
        r.unwrap()
    }

    fn cols<'a>(t: &'a Table, attrs: &[AttrId]) -> Vec<&'a ColumnDict> {
        attrs.iter().map(|&x| &**t.column(x)).collect()
    }

    fn pool() -> BufferPool {
        BufferPool::with_capacity_pages(1)
    }

    fn sample() -> Table {
        // (x, y): (1,'a') (1,'a') (2,'b') (NULL,'c') (3,NULL)
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
        let (x, y) = (t.column(a(0)), t.column(a(1)));
        assert_eq!(x.rows(), 5);
        assert_eq!(*x.codes(), [1, 1, 2, 0, 3]);
        assert_eq!(*y.codes(), [1, 1, 2, 3, 0]);
        assert_eq!(x.cardinality(), 3);
        assert!(x.has_null());
        assert_eq!(x.null_count(), 1);
        assert_eq!(x.value_of(1), Some(&Value::Int(1)));
        assert_eq!(x.value_of(0), None);
        assert_eq!(x.code_of(&Value::Int(2)), 2);
        assert_eq!(x.code_of(&Value::Int(99)), NULL_CODE);
        assert_eq!(x.code_of(&Value::Null), NULL_CODE);
        assert_eq!(y.code_of(&Value::str("c")), 3);
        assert_eq!(x.cell(3), &Value::Null);
        assert_eq!(y.cell(2), &Value::str("b"));
    }

    #[test]
    fn count_distinct_matches_reference() {
        let t = sample();
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
                ok(distinct_codes(&cols(&t, &attrs), &pool(), t.len())).len(),
                t.count_distinct(&attrs),
                "attrs {attrs:?}"
            );
        }
    }

    #[test]
    fn decode_recovers_reference_projection() {
        let t = sample();
        for attrs in [vec![a(0)], vec![a(0), a(1)], vec![a(1), a(0), a(0)]] {
            let c = cols(&t, &attrs);
            let set = ok(distinct_codes(&c, &pool(), t.len()));
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
        for x in [a(0), a(1)] {
            let expected = StrippedPartition::for_attribute(&t, x);
            assert_eq!(ok(partition1(t.column(x), &pool())), expected, "attr {x:?}");
        }
    }

    #[test]
    fn lhs_groups_skip_null_rows() {
        let t = sample();
        let groups = |attrs: &[AttrId]| ok(lhs_groups(&cols(&t, attrs), &pool(), t.len()));
        // x: value 1 on rows {0,1}; NULL row 3 skipped.
        assert_eq!(groups(&[a(0)]), vec![vec![0, 1]]);
        // (x, y): only (1,'a') repeats.
        assert_eq!(groups(&[a(0), a(1)]), vec![vec![0, 1]]);
        assert_eq!(groups(&[a(0), a(1), a(0)]), vec![vec![0, 1]]);
    }

    /// The g3 tally's fold keeps NULL as a value: two rows share a key
    /// exactly when every cell agrees, NULL = NULL included.
    #[test]
    fn tuple_keys_fold_null_as_a_value() {
        let t = Table::from_rows(
            2,
            vec![
                vec![Value::Null, Value::str("a")],
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Null, Value::str("a")],
                vec![Value::Int(1), Value::Null],
            ],
        )
        .unwrap();
        let columns = [a(0), a(1)].map(|x| Arc::clone(t.column(x)));
        let (keys, count) = ok(tuple_keys(&columns, t.len()));
        assert_eq!(keys[0], keys[2]);
        assert!(keys[0] != keys[1] && keys[1] != keys[3] && keys[0] != keys[3]);
        assert!(keys.iter().all(|&k| (k as usize) < count));
        // Skipping NULLs instead leaves one tuple, on one row.
        let set = ok(distinct_codes(&cols(&t, &[a(0), a(1)]), &pool(), t.len()));
        assert_eq!((set.len(), set.rows()), (1, 1));
    }

    #[test]
    fn join_stats_translate_across_tables() {
        let ints = |vs: &[i64]| {
            Table::from_rows(
                1,
                vs.iter().map(|&v| vec![Value::Int(v)]).collect::<Vec<_>>(),
            )
            .unwrap()
        };
        let (l, r) = (ints(&[1, 2, 2, 4, -7]), ints(&[4, 1, 9]));
        let (lc, rc) = (cols(&l, &[a(0)]), cols(&r, &[a(0)]));
        let (ls, rs) = (
            ok(distinct_codes(&lc, &pool(), l.len())),
            ok(distinct_codes(&rc, &pool(), r.len())),
        );
        assert_eq!(
            (ls.len(), rs.len(), intersect_count(&lc, &ls, &rc, &rs)),
            (4, 3, 2)
        );
    }

    #[test]
    fn nan_interns_consistently() {
        use crate::value::OrdF64;
        let t = Table::from_rows(
            1,
            vec![
                vec![Value::Float(OrdF64(f64::NAN))],
                vec![Value::Float(OrdF64(f64::NAN))],
                vec![Value::Float(OrdF64(1.5))],
            ],
        )
        .unwrap();
        // Same-payload NaNs share a code (OrdF64 total order).
        assert_eq!(t.column(a(0)).cardinality(), 2);
        assert_eq!(
            ok(distinct_codes(&cols(&t, &[a(0)]), &pool(), t.len())).len(),
            t.count_distinct(&[a(0)])
        );
        assert_eq!(
            ok(partition1(t.column(a(0)), &pool())),
            StrippedPartition::for_attribute(&t, a(0))
        );
    }

    #[test]
    fn empty_table_kernels() {
        let t = Table::new(2);
        let (x, xy) = (cols(&t, &[a(0)]), cols(&t, &[a(0), a(1)]));
        assert_eq!(ok(distinct_codes(&x, &pool(), 0)).len(), 0);
        assert_eq!(ok(distinct_codes(&xy, &pool(), 0)).len(), 0);
        assert!(ok(distinct_codes(&[], &pool(), 0)).is_empty());
        assert!(ok(partition1(t.column(a(0)), &pool())).is_key());
        assert!(ok(lhs_groups(&x, &pool(), 0)).is_empty());
        assert!(ok(lhs_groups(&xy, &pool(), 0)).is_empty());
    }

    /// The typed interning paths give the codes `intern` gives, the
    /// fused counts hold, and `build` is the same builder.
    #[test]
    fn typed_interning_matches_intern_and_counts_are_fused() {
        let t = sample();
        for i in 0..t.arity() {
            let built = ColumnDict::build(&t.values(a(i as u16)).cloned().collect::<Vec<_>>());
            // Fused counts: one slot per code, NULLs in slot 0.
            assert_eq!(built.code_counts().len(), built.cardinality() + 1);
            assert_eq!(built.code_counts()[0], built.null_count() as u64);
            let total: u64 = built.code_counts().iter().sum();
            assert_eq!(total, built.rows() as u64);
            let mut typed = DictBuilder::new();
            let codes: Vec<u32> = t
                .values(a(i as u16))
                .map(|v| match v {
                    Value::Int(n) => typed.intern_int(*n),
                    Value::Str(s) => typed.intern_text(s),
                    v => typed.intern(v),
                })
                .collect();
            assert_eq!(codes, *built.codes());
            let typed = typed.finish(codes);
            assert_eq!(typed.distinct_values(), built.distinct_values());
            assert_eq!(typed.code_counts(), built.code_counts());
            assert_eq!(&typed, &**t.column(a(i as u16)));
        }
    }

    #[test]
    fn kernels_fall_back_when_counts_missing() {
        // A dictionary without the counts invariant must still
        // partition correctly: the kernels recount.
        let t = sample();
        let built = t.column(a(0));
        let mut tables = (*built.tables).clone();
        tables.counts.clear();
        let manual = ColumnDict {
            codes: built.codes.clone(),
            tables: Arc::new(tables),
        };
        assert_eq!(
            ok(partition1(&manual, &pool())),
            ok(partition1(built, &pool()))
        );
        assert_eq!(
            ok(lhs_groups(&[&manual], &pool(), t.len())),
            ok(lhs_groups(&[&**built], &pool(), t.len()))
        );
        // Broken counts invariant → no sketch (shortcuts stay sound).
        assert!(manual.sketch().is_none());
    }

    #[test]
    fn dict_sketch_is_exact() {
        let t = sample();
        let built = t.column(a(0));
        let sketch = built.sketch().expect("counts invariant holds");
        assert_eq!(sketch.distinct_exact(), built.cardinality());
        assert_eq!(sketch.null_count(), built.null_count());
        assert_eq!(sketch.rows(), built.rows());
        // A code no row carries (zero count) → no sketch.
        let unused = ColumnDict {
            codes: Codes::Resident(vec![2]),
            tables: Arc::new(DictTables::from_parts(
                vec![Value::Int(1), Value::Int(2)],
                0,
                vec![0, 0, 1],
            )),
        };
        assert!(unused.sketch().is_none());
    }

    /// A gathered column takes dense first-occurrence codes over the
    /// source's decode values, sharing their allocations, and keeps
    /// exact counts.
    #[test]
    fn gather_remaps_to_dense_first_occurrence_codes() {
        let t = sample();
        let y = t.column(a(1));
        let g = y.gather(&[4, 2, 2, 0]);
        assert_eq!(*g.codes(), [0, 1, 1, 2]);
        assert_eq!(g.distinct_values(), [Value::str("b"), Value::str("a")]);
        assert_eq!(g.code_counts(), [1, 2, 1]);
        assert_eq!(g.null_count(), 1);
        let (Value::Str(from), Value::Str(to)) = (y.cell(2), g.cell(1)) else {
            panic!("text cells")
        };
        assert!(Arc::ptr_eq(from, to));
    }

    /// A copy of a column shares its dictionary until it is written;
    /// the write copies the dictionary and leaves the source alone.
    #[test]
    fn a_write_copies_a_shared_dictionary() {
        let t = sample();
        let source = t.column(a(0));
        let mut copy = ColumnDict::clone(source);
        assert!(Arc::ptr_eq(&copy.tables, &source.tables));
        copy.push(&Value::Int(7));
        assert!(!Arc::ptr_eq(&copy.tables, &source.tables));
        assert_eq!(source.cardinality(), 3);
        assert_eq!((copy.cardinality(), copy.rows()), (4, 6));
        assert_eq!(copy.cell(5), &Value::Int(7));
    }

    /// A kept dictionary carries no growth slack: `finish` shrinks it
    /// to its cardinality.
    #[test]
    fn finish_releases_the_growth_slack() {
        let mut b = DictBuilder::new();
        let codes = (0..1000).map(|i| b.intern_int(i % 600)).collect();
        let column = b.finish(codes);
        assert_eq!(column.cardinality(), 600);
        assert_eq!(column.tables.values.capacity(), 600);
        assert_eq!(column.tables.counts.capacity(), 601);
    }
}
