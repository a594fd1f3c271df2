//! The counting-backend seam: one trait for the `‖·‖` primitive.
//!
//! Every algorithm of the paper is driven by a handful of extension
//! statistics — `‖r[A]‖` distinct projections, the three IND-Discovery
//! join cardinalities, FD extension tests, and LHS row groups (§6).
//! The repo grew three independent implementations of them: the
//! `Value`-based reference code ([`crate::counting`] / [`crate::table`]),
//! the dictionary-encoded integer kernels ([`crate::encode`]), and a
//! generated-SQL path that queries the extension the way a real DBRE
//! tool would interrogate a live legacy DBMS (`dbre-sql`).
//!
//! [`CountBackend`] is the seam that makes them interchangeable: the
//! memoizing [`crate::stats::StatsEngine`] decorates *any*
//! `dyn CountBackend` with generation-tagged result caches, the
//! pipeline selects a backend per run, and the differential test suite
//! pins all implementations to the same answers. A future backend
//! (sharded, remote, sampled) is a one-file addition that inherits the
//! caching, the pipeline wiring, and the test harness.
//!
//! [`ReferenceBackend`] (the `Value`-based reference semantics) lives
//! here, and so does [`ColumnarBackend`], the one backend over the
//! tables' dictionary columns: it runs the kernel family of
//! [`crate::encode`] over each table's own columns, encoded once at
//! load, and keeps only its buffer pool and one generation-tagged
//! cache of each projection's distinct tuples, folded into dense ids
//! ([`crate::encode::TupleIds`], in the crate-private memo the engine's
//! caches are). Resident codes are read in place; a streamed table's paged
//! codes are read page by page through the pool. [`EncodedBackend`]
//! and [`crate::pages::PagedBackend`] are its two names. The SQL
//! backend lives in `dbre-sql` (`SqlBackend`), respecting the
//! dependency direction: this crate knows nothing about SQL.
//!
//! NULL conventions are part of the contract (see the trait docs):
//! projections and counts drop NULL-bearing tuples (SQL
//! `COUNT(DISTINCT …)`), [`CountBackend::fd_holds`] skips NULL-LHS rows
//! and compares RHS values structurally (`NULL = NULL`, `NaN = NaN` by
//! bit key), while [`CountBackend::partition1`] keeps the mining
//! convention (`NULL = NULL`). Every implementation must reproduce
//! these exactly — the differential proptests enforce it.

use crate::attr::AttrId;
use crate::bufpool::{BufferPool, PageCacheStats};
use crate::counting::{join_stats, EquiJoin, JoinStats};
use crate::database::Database;
use crate::deps::{Fd, Ind};
use crate::encode::{
    self, decode_set_cols, intersect_count, tuple_keys, ColumnDict, Tally, TupleIds,
};
use crate::fasthash::FxHashMap;
use crate::memo::Memo;
use crate::pages::PageError;
use crate::partitions::StrippedPartition;
use crate::schema::RelId;
use crate::sketch::ColumnSketch;
use crate::spill::SpillCacheStats;
use crate::table::ProjKey;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Execution counters a backend may expose about *how* it served its
/// probes — all zero for backends with a single execution strategy.
///
/// The SQL backend populates all three: `fallback_failures` counts
/// generated statements that failed to execute and were silently
/// served by the reference semantics (a healthy backend keeps this at
/// zero — the pipeline surfaces it as a warning), while `batch_ops` /
/// `tuple_fallback_ops` record how many generated statements were
/// lowered onto the counting kernels versus run on the tuple-at-a-time
/// interpreter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendExecStats {
    /// Probes whose native execution failed and were served by a
    /// reference fallback instead. Zero on a healthy backend.
    pub fallback_failures: u64,
    /// Statements served by their lowering onto the counting kernels.
    pub batch_ops: u64,
    /// Statements served by the tuple-at-a-time fallback interpreter.
    pub tuple_fallback_ops: u64,
}

/// One implementation of the paper's `‖·‖` counting primitive and the
/// extension tests built on it.
///
/// All methods take the [`Database`] by parameter — backends are
/// (logically) stateless services over whatever extension they are
/// handed; any internal caching (see [`EncodedBackend`]) must be
/// generation-aware and invisible in the results. `Send + Sync` is a
/// supertrait so one backend can serve concurrent sessions (`dbre-core`'s
/// `run_service`) through a shared reference.
///
/// Semantics contract (pinned by the differential proptest suites):
///
/// * [`count_distinct`](CountBackend::count_distinct) /
///   [`projection`](CountBackend::projection) — distinct projected
///   tuples with NULL-bearing rows dropped (SQL `COUNT(DISTINCT …)`);
/// * [`join_stats`](CountBackend::join_stats) — the three cardinalities
///   `N_k`, `N_l`, `N_kl` of §6.1, NULLs never join;
/// * [`lhs_groups`](CountBackend::lhs_groups) — row-index groups of
///   size ≥ 2 agreeing on the attributes, NULL-bearing rows skipped
///   (unless the attribute list is empty), groups ascending and sorted;
/// * [`fd_holds`](CountBackend::fd_holds) — SQL convention, same
///   answer as [`Database::fd_holds`]; [`fd_error`](CountBackend::fd_error)
///   is 0 exactly then;
/// * [`partition1`](CountBackend::partition1) — the mining convention
///   (`NULL = NULL`) of [`crate::partitions`].
pub trait CountBackend: Send + Sync {
    /// A short stable name for reports and the CLI (`"reference"`,
    /// `"encoded"`, `"paged"`, `"sql"`).
    fn name(&self) -> &'static str;

    /// `‖rel[attrs]‖` — the paper's cardinality query (SQL
    /// `COUNT(DISTINCT attrs)`: NULL-bearing tuples dropped).
    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize;

    /// The three IND-Discovery cardinalities for `join` (§6.1).
    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats;

    /// Row-index groups (size ≥ 2) agreeing on `attrs` under SQL
    /// semantics — rows with a NULL in `attrs` are skipped, exactly
    /// like [`Database::fd_holds`]. Deterministically ordered: indices
    /// ascending within a group, groups sorted.
    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>>;

    /// The distinct projection `π_{attrs}(rel)` (NULL rows dropped) as
    /// `Value` tuples — for consumers that need the actual values,
    /// e.g. materializing a conceptualized intersection.
    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        Arc::new(db.table(rel).distinct_projection(attrs))
    }

    /// Does `fd` hold in the extension? SQL NULL semantics: NULL-LHS
    /// rows are skipped; the RHS comparison is structural equality on
    /// the cells (`NULL = NULL`, `NaN = NaN` by bit key). The default
    /// reads the same answer as [`fd_error`](CountBackend::fd_error):
    /// the FD holds iff its g3 error is 0.
    fn fd_holds(&self, db: &Database, fd: &Fd) -> bool {
        self.fd_error(db, fd) == 0.0
    }

    /// The `g3` error of `fd`: the fraction of the rows with a non-NULL
    /// LHS to delete for it to hold — every LHS group keeps its
    /// plurality RHS and loses the rest. 0 iff the FD holds; the same
    /// number as the `Value`-level reference (`dbre_mine`'s
    /// `fd_error`). The default reads the
    /// [`lhs_groups`](CountBackend::lhs_groups) and the RHS
    /// [`column_dict`](CountBackend::column_dict) codes — both cached
    /// when `self` is a [`crate::stats::StatsEngine`], which caches the
    /// answer too — and allocates nothing per group.
    fn fd_error(&self, db: &Database, fd: &Fd) -> f64 {
        g3_error(self, db, fd)
    }

    /// Does `ind` hold in the extension? Same answer as
    /// [`Database::ind_holds`]. The default phrases inclusion through
    /// [`join_stats`](CountBackend::join_stats): `r[X] ⊆ s[Y]` iff the
    /// intersection has the full left cardinality.
    fn ind_holds(&self, db: &Database, ind: &Ind) -> bool {
        // An Ind guarantees equal side arity, so the struct literal
        // cannot violate the EquiJoin invariant.
        let join = EquiJoin {
            left: ind.lhs.clone(),
            right: ind.rhs.clone(),
        };
        let s = self.join_stats(db, &join);
        s.n_join == s.n_left
    }

    /// The stripped partition `π_{attr}` under the **mining
    /// convention** (`NULL = NULL`) — the substrate of the TANE/key
    /// baselines, not expressible as a plain SQL count.
    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        Arc::new(StrippedPartition::for_attribute(db.table(rel), attr))
    }

    /// A hint that `rel` is about to be queried heavily (e.g. right
    /// after a CSV import, while the rows are hot): backends may build
    /// internal structures eagerly. Results must be unaffected.
    fn prewarm(&self, db: &Database, rel: RelId) {
        let _ = (db, rel);
    }

    /// One column of `rel` with its codes resident: the table's own
    /// column when they are, otherwise a copy sharing its dictionary
    /// whose codes were read from the pages — the per-row codes FD
    /// questions and Restruct's split read. Always `Some`. The default
    /// reads paged codes from the column's own page file; the columnar
    /// backends read them through their pool.
    ///
    /// # Panics
    ///
    /// When a page cannot be read, naming the relation and the file.
    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        let column = db.table(rel).column(attr);
        Some(match column.pages() {
            None => Arc::clone(column),
            Some(_) => Arc::new(ColumnDict::clone(column).into_resident()),
        })
    }

    /// One column's exact row, NULL and distinct counts
    /// ([`crate::sketch::ColumnSketch`]), when the backend holds them
    /// without a scan — the seam key inference and RHS-Discovery read
    /// before paying for a partition or an FD probe. `None` (the
    /// default) only turns those shortcuts off for the column: they
    /// skip work whose outcome the counts prove, so their absence
    /// merely costs speed. Implementations must read the counts from
    /// the same generation-consistent state that serves their counting
    /// probes.
    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        let _ = (db, rel, attr);
        None
    }

    /// A snapshot of the backend's [`BackendExecStats`]. Defaults to
    /// all-zero for backends with a single execution strategy.
    fn exec_stats(&self) -> BackendExecStats {
        BackendExecStats::default()
    }

    /// A snapshot of the backend's page-cache counters
    /// ([`crate::bufpool::PageCacheStats`]). All-zero for fully
    /// in-memory backends; the paged backend reports its buffer
    /// pool's hits, misses and evictions here, and the pipeline
    /// snapshots them into its run statistics.
    fn page_stats(&self) -> PageCacheStats {
        PageCacheStats::default()
    }

    /// A snapshot of the backend's spill-cache counters
    /// ([`crate::spill::SpillCacheStats`]). All-zero for backends
    /// without a persistent spill cache; the paged backend counts one
    /// hit per streamed-ingest table whose encode pass the cache
    /// skipped, one miss per table that had to encode.
    fn spill_stats(&self) -> SpillCacheStats {
        SpillCacheStats::default()
    }
}

/// The g3 error of `fd` — the default [`CountBackend::fd_error`] —
/// read off `backend`'s LHS groups and their [`pluralities`]: each
/// group's size minus its plurality count, summed, over the rows with
/// a non-NULL LHS. A key-like LHS (no group) reads nothing else, and
/// only a failing FD asks for that row count, as the grouped rows plus
/// one row per distinct LHS value outside the groups.
pub(crate) fn g3_error<B: CountBackend + ?Sized>(backend: &B, db: &Database, fd: &Fd) -> f64 {
    let lhs: Vec<AttrId> = fd.lhs.iter().collect();
    let groups = backend.lhs_groups(db, fd.rel, &lhs);
    let grouped: usize = groups.iter().map(Vec::len).sum();
    let kept: usize = pluralities(backend, db, fd, &groups)
        .iter()
        .map(|&(_, n)| n)
        .sum();
    if grouped == kept {
        return 0.0;
    }
    let considered = grouped + backend.count_distinct(db, fd.rel, &lhs) - groups.len();
    (grouped - kept) as f64 / considered as f64
}

/// The plurality right-hand side of every group of `groups` (the LHS
/// groups of `fd`, as [`CountBackend::lhs_groups`] returns them): per
/// group, the row where its most frequent `fd.rhs` cells first occur —
/// ties going to the earliest first occurrence — and how often they
/// occur. NULL and NaN cells count as values. Reads the codes of the
/// RHS [`CountBackend::column_dict`] (none when there is no group) —
/// a composite RHS's [`encode::fold`]ed into one key per row — and
/// allocates nothing per group.
pub fn pluralities<B: CountBackend + ?Sized>(
    backend: &B,
    db: &Database,
    fd: &Fd,
    groups: &[Vec<usize>],
) -> Vec<(usize, usize)> {
    if groups.is_empty() {
        return Vec::new();
    }
    let rhs: Vec<Arc<ColumnDict>> = fd
        .rhs
        .iter()
        .map(|a| {
            backend
                .column_dict(db, fd.rel, a)
                .unwrap_or_else(|| Arc::clone(db.table(fd.rel).column(a)))
        })
        .collect();
    let (keys, count) = read_or_die(db, fd.rel, tuple_keys(&rhs, db.table(fd.rel).len()));
    let mut tally = Tally::new(count);
    groups
        .iter()
        .map(|group| tally.plurality(group, &keys))
        .collect()
}

/// Shared `Value`-level implementation of the LHS-group contract (see
/// [`CountBackend::lhs_groups`]); also the oracle the differential
/// tests compare against. Keys borrow the decoded cells, so no cell is
/// cloned, and a row whose key is new allocates no group.
pub(crate) fn lhs_groups_reference(db: &Database, rel: RelId, attrs: &[AttrId]) -> Vec<Vec<usize>> {
    let table = db.table(rel);
    if let [attr] = attrs {
        return group_rows(table.values(*attr).map(|v| (!v.is_null()).then_some(v)));
    }
    let mut cols: Vec<_> = attrs.iter().map(|a| table.values(*a)).collect();
    group_rows((0..table.len()).map(|_| {
        let key: Vec<&Value> = cols
            .iter_mut()
            .map(|c| c.next().unwrap_or(&Value::Null))
            .collect();
        (!key.iter().any(|v| v.is_null())).then_some(key)
    }))
}

/// The groups of two or more rows sharing a key (`None`: the row is in
/// no group), rows ascending within a group, groups sorted.
fn group_rows<K: Hash + Eq>(keys: impl Iterator<Item = Option<K>>) -> Vec<Vec<usize>> {
    // Per key: its first row, and the whole group once a second row
    // arrives.
    let mut map: FxHashMap<K, (usize, Vec<usize>)> = FxHashMap::default();
    for (i, key) in keys.enumerate() {
        let Some(key) = key else { continue };
        match map.entry(key) {
            Entry::Occupied(mut seen) => {
                let (first, group) = seen.get_mut();
                if group.is_empty() {
                    group.push(*first);
                }
                group.push(i);
            }
            Entry::Vacant(new) => {
                new.insert((i, Vec::new()));
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = map
        .into_values()
        .map(|(_, group)| group)
        .filter(|group| !group.is_empty())
        .collect();
    groups.sort();
    groups
}

/// The `Value`-based reference backend: every probe is a fresh scan
/// through the primitives of [`crate::counting`] / [`crate::table`] /
/// [`crate::partitions`]. Slowest and simplest — the semantics oracle
/// the other backends are differentially pinned against, and the
/// fallback when a specialized backend cannot express a probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

impl CountBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        db.table(rel).count_distinct(attrs)
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        join_stats(db, join)
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        Arc::new(lhs_groups_reference(db, rel, attrs))
    }

    fn fd_holds(&self, db: &Database, fd: &Fd) -> bool {
        // The Database-level check is the original reference; keep the
        // backend answer literally that one.
        db.fd_holds(fd)
    }

    fn ind_holds(&self, db: &Database, ind: &Ind) -> bool {
        db.ind_holds(ind)
    }
}

/// A counting backend over the tables' dictionary columns: counting /
/// grouping / partitioning / join probes run the integer-code kernels
/// of [`crate::encode`] over each table's own columns, which loading
/// encoded once.
///
/// Resident codes are read in place. A streamed table's paged codes
/// are read page by page through the backend's [`BufferPool`]; a page
/// that cannot be read fails the probe loudly, naming the relation and
/// the file.
///
/// `PAGED` only names the backend: [`EncodedBackend`] is `encoded`,
/// [`crate::pages::PagedBackend`] is `paged`, whose pool a workload
/// sizes.
///
/// Each projection's distinct tuples ([`TupleIds`]: a dictionary's
/// cardinality for one column, the folded tuple ids for more) are
/// cached *inside* the backend, tagged with [`Database::generation`],
/// so a mutated table can never serve a stale set; they are shared
/// between counts, projections and every join side touching them, so
/// a composite key several joins reference is folded once.
pub struct ColumnarBackend<const PAGED: bool> {
    /// What paged codes are read through.
    pub(crate) pool: Arc<BufferPool>,
    /// The distinct tuples of each `(rel, attrs)`.
    sets: Memo<(RelId, Vec<AttrId>), Arc<TupleIds>>,
    /// Streamed-ingest tables whose encode the persistent spill cache
    /// skipped.
    pub(crate) spill_hits: AtomicU64,
    /// Streamed-ingest tables that had to encode (cold cache, or no
    /// `--spill-dir` configured).
    pub(crate) spill_misses: AtomicU64,
}

/// The dictionary-encoded backend.
pub type EncodedBackend = ColumnarBackend<false>;

impl<const PAGED: bool> Default for ColumnarBackend<PAGED> {
    fn default() -> Self {
        ColumnarBackend::with_pool(Arc::new(BufferPool::default()))
    }
}

/// A probe's answer, or a loud failure naming the relation whose pages
/// could not be read (the error names the file).
fn read_or_die<T>(db: &Database, rel: RelId, answer: Result<T, PageError>) -> T {
    answer.unwrap_or_else(|err| {
        panic!(
            "cannot read the spilled pages of relation `{}`: {err}",
            db.schema.relation(rel).name
        )
    })
}

/// The columns of `attrs` in `rel`'s table, in order (repeats allowed).
fn columns<'a>(db: &'a Database, rel: RelId, attrs: &[AttrId]) -> Vec<&'a ColumnDict> {
    let table = db.table(rel);
    attrs.iter().map(|a| &**table.column(*a)).collect()
}

impl<const PAGED: bool> ColumnarBackend<PAGED> {
    /// A backend with an empty cache and the default 64 MiB buffer pool.
    pub fn new() -> Self {
        ColumnarBackend::default()
    }

    /// A backend whose pool holds at most `bytes` of page data.
    pub fn with_capacity_bytes(bytes: usize) -> Self {
        ColumnarBackend::with_pool(Arc::new(BufferPool::with_capacity_bytes(bytes)))
    }

    /// A backend over an explicit (possibly shared) pool.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        ColumnarBackend {
            pool,
            sets: Memo::default(),
            spill_hits: AtomicU64::new(0),
            spill_misses: AtomicU64::new(0),
        }
    }

    /// The backend's buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The distinct non-NULL projected code tuples `π_{attrs}(rel)` as
    /// tuple ids, shared out of the cache.
    fn distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<TupleIds> {
        let set = self
            .sets
            .get_or_try_init((rel, attrs.to_vec()), db.generation(rel), || {
                let cols = columns(db, rel, attrs);
                encode::distinct_codes(&cols, &self.pool, db.table(rel).len()).map(Arc::new)
            });
        read_or_die(db, rel, set).value
    }
}

impl<const PAGED: bool> CountBackend for ColumnarBackend<PAGED> {
    fn name(&self) -> &'static str {
        if PAGED {
            "paged"
        } else {
            "encoded"
        }
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        self.distinct(db, rel, attrs).len()
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        let (l, r) = (&join.left, &join.right);
        let left = self.distinct(db, l.rel, &l.attrs);
        let right = self.distinct(db, r.rel, &r.attrs);
        JoinStats {
            n_left: left.len(),
            n_right: right.len(),
            n_join: intersect_count(
                &columns(db, l.rel, &l.attrs),
                &left,
                &columns(db, r.rel, &r.attrs),
                &right,
            ),
        }
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        let cols = columns(db, rel, attrs);
        let groups = encode::lhs_groups(&cols, &self.pool, db.table(rel).len());
        Arc::new(read_or_die(db, rel, groups))
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        let set = self.distinct(db, rel, attrs);
        Arc::new(decode_set_cols(&columns(db, rel, attrs), &set))
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        let col = db.table(rel).column(attr);
        Arc::new(read_or_die(db, rel, encode::partition1(col, &self.pool)))
    }

    /// Paged codes are read through the pool, once per call: the
    /// [`crate::stats::StatsEngine`] above caches the copy per
    /// generation.
    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        let column = db.table(rel).column(attr);
        Some(read_or_die(db, rel, column.resident(&self.pool)))
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        // The column carries its exact per-code counts, so this never
        // reads a code page.
        db.table(rel).column(attr).sketch().map(Arc::new)
    }

    fn page_stats(&self) -> PageCacheStats {
        self.pool.stats()
    }

    fn spill_stats(&self) -> SpillCacheStats {
        SpillCacheStats {
            hits: self.spill_hits.load(Ordering::Relaxed),
            misses: self.spill_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::deps::IndSide;
    use crate::schema::Relation;
    use crate::table::Table;
    use crate::value::{Domain, Value};

    fn sample_db() -> (Database, RelId, RelId) {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("a", Domain::Int), ("b", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("c", Domain::Int)]))
            .unwrap();
        for (a, b) in [(1, 10), (1, 10), (2, 20), (3, 20), (4, 30)] {
            db.insert(l, vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        db.insert(l, vec![Value::Null, Value::Int(40)]).unwrap();
        for c in [1, 2, 3, 9] {
            db.insert(r, vec![Value::Int(c)]).unwrap();
        }
        (db, l, r)
    }

    /// Every probe of the in-crate backends agrees with the reference on
    /// a NULL-bearing database — the paged backend on its streamed
    /// twin, over a one-page pool (the exhaustive pinning lives in the
    /// differential proptest suites; this is the smoke test).
    #[test]
    fn in_crate_backends_agree() {
        let (db, l, r) = sample_db();
        let encoded = EncodedBackend::new();
        let (twin, paged) = crate::pages::streamed_twin(&db, crate::pages::PAGE_BYTES);
        let backends: [(&dyn CountBackend, &Database); 3] =
            [(&ReferenceBackend, &db), (&encoded, &db), (&paged, &twin)];
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let fd = Fd::new(
            l,
            AttrSet::from_indices([0u16]),
            AttrSet::from_indices([1u16]),
        );
        let ind = Ind::unary(l, AttrId(0), r, AttrId(0));
        for (b, bdb) in backends {
            let name = b.name();
            assert_eq!(b.count_distinct(bdb, l, &[AttrId(0)]), 4, "{name}");
            assert_eq!(
                *b.lhs_groups(bdb, l, &[AttrId(0)]),
                vec![vec![0, 1]],
                "{name}"
            );
            for attrs in [vec![AttrId(0)], vec![AttrId(0), AttrId(1)]] {
                assert_eq!(
                    b.count_distinct(bdb, l, &attrs),
                    db.table(l).count_distinct(&attrs),
                    "{name}"
                );
                assert_eq!(
                    *b.lhs_groups(bdb, l, &attrs),
                    lhs_groups_reference(&db, l, &attrs),
                    "{name}"
                );
                assert_eq!(
                    *b.projection(bdb, l, &attrs),
                    db.table(l).distinct_projection(&attrs),
                    "{name}"
                );
            }
            assert_eq!(b.join_stats(bdb, &join), join_stats(&db, &join), "{name}");
            assert_eq!(b.fd_holds(bdb, &fd), db.fd_holds(&fd), "{name}");
            assert_eq!(b.ind_holds(bdb, &ind), db.ind_holds(&ind), "{name}");
            assert_eq!(
                *b.partition1(bdb, l, AttrId(1)),
                StrippedPartition::for_attribute(db.table(l), AttrId(1)),
                "{name}"
            );
        }
        let pool = paged.page_stats();
        assert!(
            pool.hits + pool.misses > 0,
            "paged probes must touch the pool"
        );
    }

    /// The reference and encoded backends answer a streamed table —
    /// paged columns read from their own page files, or through the
    /// encoded backend's pool — exactly as the paged backend does.
    #[test]
    fn every_backend_answers_a_streamed_table_as_the_paged_one() {
        let (db, l, r) = sample_db();
        let (twin, paged) = crate::pages::streamed_twin(&db, crate::pages::PAGE_BYTES);
        let encoded = EncodedBackend::new();
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let fd = Fd::new(
            l,
            AttrSet::from_indices([1u16]),
            AttrSet::from_indices([0u16]),
        );
        let ind = Ind::unary(r, AttrId(0), l, AttrId(0));
        for b in [&ReferenceBackend as &dyn CountBackend, &encoded] {
            let name = b.name();
            for attrs in [vec![AttrId(0)], vec![AttrId(0), AttrId(1)], vec![AttrId(1)]] {
                assert_eq!(
                    b.count_distinct(&twin, l, &attrs),
                    paged.count_distinct(&twin, l, &attrs),
                    "{name}"
                );
                assert_eq!(
                    b.lhs_groups(&twin, l, &attrs),
                    paged.lhs_groups(&twin, l, &attrs),
                    "{name}"
                );
                assert_eq!(
                    b.projection(&twin, l, &attrs),
                    paged.projection(&twin, l, &attrs),
                    "{name}"
                );
            }
            assert_eq!(
                b.join_stats(&twin, &join),
                paged.join_stats(&twin, &join),
                "{name}"
            );
            assert_eq!(b.fd_holds(&twin, &fd), paged.fd_holds(&twin, &fd), "{name}");
            assert_eq!(b.fd_error(&twin, &fd), paged.fd_error(&twin, &fd), "{name}");
            assert_eq!(
                b.ind_holds(&twin, &ind),
                paged.ind_holds(&twin, &ind),
                "{name}"
            );
            for a in [AttrId(0), AttrId(1)] {
                assert_eq!(
                    b.partition1(&twin, l, a),
                    paged.partition1(&twin, l, a),
                    "{name}"
                );
                let (mine, theirs) = (
                    b.column_dict(&twin, l, a).unwrap(),
                    paged.column_dict(&twin, l, a).unwrap(),
                );
                assert_eq!(mine.codes(), theirs.codes(), "{name}");
            }
        }
        assert!(
            encoded.page_stats().misses > 0,
            "encoded read pages through its pool"
        );
    }

    /// A page file truncated after load (the fuzz corpus's truncated
    /// page over it) fails every backend's page-reading probe loudly,
    /// naming the relation and the file.
    #[test]
    fn a_page_truncated_after_load_fails_naming_the_relation_and_the_file() {
        const TRUNCATED_PAGE: &[u8] = include_bytes!("../../fuzz/corpus/truncated_page.colpage");
        let mut db = Database::new();
        let relation = Relation::of("Stub", &[("x", Domain::Int), ("y", Domain::Int)]);
        let rows = (0..100).map(|i| vec![Value::Int(i % 7), Value::Int(i)]);
        let table = crate::pages::paged_twin(&Table::from_rows(2, rows).unwrap(), "Stub");
        let path = table
            .column(AttrId(0))
            .pages()
            .unwrap()
            .file()
            .path()
            .to_path_buf();
        let rel = db.add_relation_with_table(relation, table).unwrap();
        std::fs::write(&path, TRUNCATED_PAGE).unwrap();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let fd = Fd::new(
            rel,
            AttrSet::from_indices([0u16]),
            AttrSet::from_indices([1u16]),
        );
        let encoded = EncodedBackend::new();
        let paged = crate::pages::PagedBackend::new();
        let backends: [&dyn CountBackend; 3] = [&ReferenceBackend, &encoded, &paged];
        for b in backends {
            let probes: [(&str, &dyn Fn()); 5] = [
                ("count_distinct", &|| {
                    b.count_distinct(&db, rel, &[AttrId(0), AttrId(1)]);
                }),
                ("lhs_groups", &|| {
                    b.lhs_groups(&db, rel, &[AttrId(0)]);
                }),
                ("partition1", &|| {
                    b.partition1(&db, rel, AttrId(0));
                }),
                ("fd_error", &|| {
                    b.fd_error(&db, &fd);
                }),
                ("column_dict", &|| {
                    b.column_dict(&db, rel, AttrId(0));
                }),
            ];
            for (probe, run) in probes {
                let failure = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                let message = failure
                    .err()
                    .and_then(|e| e.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(
                    message.contains("relation `Stub`") && message.contains(&file),
                    "{} {probe} must fail naming the relation and the file, got {message:?}",
                    b.name()
                );
            }
        }
    }

    /// The encoded backend's internal caches are generation-aware: a
    /// mutation is visible on the very next probe.
    #[test]
    fn encoded_cache_invalidates_on_mutation() {
        let (mut db, l, _) = sample_db();
        let encoded = EncodedBackend::new();
        assert_eq!(encoded.count_distinct(&db, l, &[AttrId(0)]), 4);
        db.insert(l, vec![Value::Int(99), Value::Int(1)]).unwrap();
        assert_eq!(encoded.count_distinct(&db, l, &[AttrId(0)]), 5);
    }

    /// A writer that panicked holding the encoded-set memo's write
    /// guard leaves it poisoned with whatever it planted (here an
    /// impossible cardinality): the next probe must purge and
    /// recompute, never report 999.
    #[test]
    fn poisoned_cache_is_cleared_not_served() {
        let (db, l, _) = sample_db();
        let encoded = EncodedBackend::new();
        assert_eq!(encoded.count_distinct(&db, l, &[AttrId(0)]), 4);
        let wide = ColumnDict::build(&(0..999).map(Value::Int).collect::<Vec<_>>());
        let bogus = encode::distinct_codes(&[&wide], encoded.pool(), 999).unwrap();
        assert_eq!(bogus.len(), 999);
        encoded
            .sets
            .plant_and_poison((l, vec![AttrId(0)]), db.generation(l), Arc::new(bogus));
        assert_eq!(encoded.count_distinct(&db, l, &[AttrId(0)]), 4);
        assert!(
            !encoded.sets.is_poisoned(),
            "recovery must clear the poison flag so later probes see a healthy cache"
        );
    }

    /// Prewarming changes no answer.
    #[test]
    fn prewarm_is_transparent() {
        let (db, l, _) = sample_db();
        let encoded = EncodedBackend::new();
        encoded.prewarm(&db, l);
        assert_eq!(
            encoded.count_distinct(&db, l, &[AttrId(0), AttrId(1)]),
            ReferenceBackend.count_distinct(&db, l, &[AttrId(0), AttrId(1)])
        );
    }
}
