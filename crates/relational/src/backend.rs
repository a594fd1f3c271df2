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
//! here, and so does [`ColumnarBackend`], the one backend over
//! dictionary-encoded columns: it owns the generation-tagged column
//! and encoded-set caches and the single set of [`CountBackend`]
//! method bodies, and runs the kernel family of [`crate::encode`].
//! Its [`ColumnStore`] decides only where a built column's codes live:
//! [`EncodedBackend`] keeps them resident ([`ResidentStore`]),
//! [`crate::pages::PagedBackend`] spills them to pages behind a buffer
//! pool ([`crate::pages::SpilledStore`]). The SQL backend lives in
//! `dbre-sql` (`SqlBackend`), respecting the dependency direction:
//! this crate knows nothing about SQL.
//!
//! NULL conventions are part of the contract (see the trait docs):
//! projections and counts drop NULL-bearing tuples (SQL
//! `COUNT(DISTINCT …)`), [`CountBackend::fd_holds`] skips NULL-LHS rows
//! and compares RHS values structurally (`NULL = NULL`, `NaN = NaN` by
//! bit key), while [`CountBackend::partition1`] keeps the mining
//! convention (`NULL = NULL`). Every implementation must reproduce
//! these exactly — the differential proptests enforce it.

use crate::attr::AttrId;
use crate::bufpool::PageCacheStats;
use crate::counting::{join_stats, EquiJoin, JoinStats};
use crate::database::Database;
use crate::deps::{Fd, Ind};
use crate::encode::{
    self, decode_set_cols, intersect_count, tuple_keys, CodeSource, ColumnCodes, ColumnDict,
    EncodedSet, Tally,
};
use crate::partitions::StrippedPartition;
use crate::schema::RelId;
use crate::sketch::ColumnSketch;
use crate::spill::SpillCacheStats;
use crate::table::ProjKey;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::sync::{Arc, RwLock};

/// What a cache shard does when its lock is recovered from poisoning:
/// discard everything it holds. Dropping a cache is always sound (the
/// next probe rebuilds from the extension) — serving it is not, see
/// [`read_recover`].
pub(crate) trait PoisonReset {
    /// Discards the shard's contents.
    fn reset(&mut self);
}

impl<K, V, S> PoisonReset for HashMap<K, V, S> {
    fn reset(&mut self) {
        self.clear();
    }
}

/// Acquires a read guard, recovering from poisoning by *clearing the
/// shard first*.
///
/// A poisoned lock means a writer panicked while holding the guard.
/// Individual inserts here are single `HashMap::insert` calls of
/// fully-formed values, so a torn *entry* is impossible — but the
/// panicking thread may still have inserted a value computed from a
/// state that itself panicked halfway (a probe that blew up after
/// caching an intermediate), and a recovered reader would then serve
/// that entry forever. Discarding the shard on recovery costs one
/// cache refill and removes the possibility; `clear_poison` is called
/// so later lookups don't re-purge a healthy cache.
pub(crate) fn read_recover<T: PoisonReset>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    if let Ok(guard) = lock.read() {
        return guard;
    }
    // Escalate to a write to purge, then retake the read lock.
    drop(write_recover(lock));
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write twin of [`read_recover`]: same purge-on-poison contract,
/// applied directly to the write guard.
pub(crate) fn write_recover<T: PoisonReset>(
    lock: &RwLock<T>,
) -> std::sync::RwLockWriteGuard<'_, T> {
    match lock.write() {
        Ok(guard) => guard,
        Err(poison) => {
            let mut guard = poison.into_inner();
            guard.reset();
            lock.clear_poison();
            guard
        }
    }
}

/// A cache entry tagged with the table generation it was built from.
pub(crate) struct Tagged<T> {
    pub(crate) gen: u64,
    pub(crate) value: Arc<T>,
}

impl<T> Clone for Tagged<T> {
    fn clone(&self) -> Self {
        Tagged {
            gen: self.gen,
            value: Arc::clone(&self.value),
        }
    }
}

/// Generation-tagged cache keyed by a projection `(rel, attrs)`.
type ProjectionCache<T> = RwLock<HashMap<(RelId, Vec<AttrId>), Tagged<T>>>;

/// Generation-tagged cache keyed by one column `(rel, attr)`.
pub(crate) type ColumnCache<T> = RwLock<HashMap<(RelId, AttrId), Tagged<T>>>;

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
    /// `"encoded"`, `"sql"`).
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
    /// [`column_codes`](CountBackend::column_codes) — both cached when
    /// `self` is a [`crate::stats::StatsEngine`], which caches the
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

    /// The backend's dictionary encoding of one column, per-row codes
    /// included, when it maintains one — the dict-access seam for
    /// streamed extensions, whose raw cells are not resident:
    /// [`column_codes`](CountBackend::column_codes) serves a streamed
    /// table's codes from it, and Restruct hydrates streamed columns
    /// from it. Every caller asks only about streamed tables, which
    /// only the paged backend serves. The columnar
    /// backends answer from the same generation-tagged column cache as
    /// their counting probes; the reference and SQL backends keep no
    /// encoding and return `None`.
    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        let _ = (db, rel, attr);
        None
    }

    /// One column's per-row codes, as every FD question reads its
    /// cells ([`ColumnCodes`]): a resident table's come from a
    /// codes-only encoding of its values, a streamed table's from the
    /// backend's [`column_dict`](CountBackend::column_dict).
    ///
    /// # Panics
    ///
    /// On a streamed table whose backend serves no dictionary: a wiring
    /// bug (adoption installs the pages before discovery runs), which
    /// the session's per-stage isolation turns into a degraded stage.
    fn column_codes(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<ColumnCodes> {
        let table = db.table(rel);
        if table.is_materialized() {
            return Arc::new(ColumnCodes::encode(table.column(attr)));
        }
        Arc::new(ColumnCodes::Streamed(
            self.column_dict(db, rel, attr).unwrap_or_else(|| {
                panic!("streamed extension must have backend-served column dictionaries")
            }),
        ))
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
/// occur. NULL and NaN cells count as values. Reads the RHS
/// [`CountBackend::column_codes`] (none when there is no group) and
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
    let rhs: Vec<Arc<ColumnCodes>> = fd
        .rhs
        .iter()
        .map(|a| backend.column_codes(db, fd.rel, a))
        .collect();
    let (keys, count) = tuple_keys(&rhs, groups, db.table(fd.rel).len());
    let mut tally = Tally::new(count);
    groups
        .iter()
        .map(|group| tally.plurality(group, &keys))
        .collect()
}

/// Shared `Value`-level implementation of the LHS-group contract (see
/// [`CountBackend::lhs_groups`]); also the oracle the differential
/// tests compare against, and the fallback the paged backend degrades
/// to on a spill-file failure.
pub(crate) fn lhs_groups_reference(db: &Database, rel: RelId, attrs: &[AttrId]) -> Vec<Vec<usize>> {
    let table = db.table(rel);
    let mut map: HashMap<ProjKey, Vec<usize>> = HashMap::new();
    'rows: for i in 0..table.len() {
        let mut key = Vec::with_capacity(attrs.len());
        for a in attrs {
            let v = &table.column(*a)[i];
            if v.is_null() {
                continue 'rows;
            }
            key.push(v.clone());
        }
        map.entry(key).or_default().push(i);
    }
    let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
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

/// Where a [`ColumnarBackend`] keeps a freshly built column's codes —
/// the one thing the `encoded` and `paged` backends do differently.
///
/// Everything else is shared: the generation-tagged column cache, the
/// encoded-set cache, the kernels of [`crate::encode`] and every
/// [`CountBackend`] method body. [`ResidentStore`] keeps the codes in
/// the dictionary and cannot fail; [`crate::pages::SpilledStore`]
/// spills them to a page file behind a buffer pool and degrades a
/// failed read to the reference semantics.
pub trait ColumnStore: Send + Sync {
    /// The backend's stable name for reports and the CLI.
    const NAME: &'static str;
    /// Why a column could not be built or read — [`Infallible`] for
    /// resident codes.
    type Error;
    /// One cached column: its resident dictionary (a slim one for
    /// spilled codes) and its codes, read through [`Self::pager`].
    type Column: CodeSource<Error = Self::Error> + Send + Sync;

    /// What the columns' codes are read through.
    fn pager(&self) -> &<Self::Column as CodeSource>::Pager;

    /// Encodes one column of the table's current generation.
    fn build(&self, db: &Database, rel: RelId, attr: AttrId) -> Result<Self::Column, Self::Error>;

    /// `col`'s full dictionary, per-row codes included — the
    /// [`CountBackend::column_dict`] seam.
    fn full_dict(
        &self,
        db: &Database,
        rel: RelId,
        attr: AttrId,
        col: Arc<Self::Column>,
    ) -> Result<Arc<ColumnDict>, Self::Error>;

    /// Serves a probe whose native execution failed on `rels`.
    fn degrade<T>(
        &self,
        db: &Database,
        rels: &[RelId],
        err: Self::Error,
        reference: impl FnOnce() -> T,
    ) -> T;

    /// Releases what a replaced column held outside the cache.
    fn retire(&self, stale: &Self::Column) {
        let _ = stale;
    }

    /// See [`CountBackend::exec_stats`].
    fn exec_stats(&self) -> BackendExecStats {
        BackendExecStats::default()
    }

    /// See [`CountBackend::page_stats`].
    fn page_stats(&self) -> PageCacheStats {
        PageCacheStats::default()
    }

    /// See [`CountBackend::spill_stats`].
    fn spill_stats(&self) -> SpillCacheStats {
        SpillCacheStats::default()
    }
}

/// A counting backend over dictionary-encoded columns: each column a
/// probe touches is interned once per table generation, and counting /
/// grouping / partitioning / join probes run the integer-code kernels
/// of [`crate::encode`] over its codes, wherever the [`ColumnStore`]
/// keeps them.
///
/// The per-column encodings and the per-projection encoded sets are
/// cached *inside* the backend, tagged with [`Database::generation`]
/// so a mutated table can never serve stale codes. Encoding lazily per
/// column matters on the paper's workloads: a query set `Q` joins a
/// handful of key columns of wide denormalized relations, so encoding
/// whole tables up front would dominate the cold path the encoding is
/// meant to speed up.
pub struct ColumnarBackend<S: ColumnStore> {
    pub(crate) store: S,
    /// Per-column encodings, keyed per `(relation, attribute)` so a
    /// probe touching two columns of a wide table pays for exactly
    /// those two builds.
    pub(crate) columns: ColumnCache<S::Column>,
    /// Encoded distinct-code sets per `(rel, attrs)` — shared between
    /// counts, projections and every join side touching them.
    encoded: ProjectionCache<EncodedSet>,
}

/// The dictionary-encoded backend: every column's codes stay resident.
pub type EncodedBackend = ColumnarBackend<ResidentStore>;

/// The resident store: a freshly built column's codes stay in its
/// dictionary, in memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResidentStore;

impl ColumnStore for ResidentStore {
    const NAME: &'static str = "encoded";
    type Error = Infallible;
    type Column = ColumnDict;

    fn pager(&self) -> &() {
        &()
    }

    fn build(&self, db: &Database, rel: RelId, attr: AttrId) -> Result<ColumnDict, Infallible> {
        Ok(ColumnDict::build(db.table(rel).column(attr)))
    }

    fn full_dict(
        &self,
        _db: &Database,
        _rel: RelId,
        _attr: AttrId,
        col: Arc<ColumnDict>,
    ) -> Result<Arc<ColumnDict>, Infallible> {
        Ok(col)
    }

    fn degrade<T>(&self, _: &Database, _: &[RelId], err: Infallible, _: impl FnOnce() -> T) -> T {
        match err {}
    }
}

impl<S: ColumnStore + Default> Default for ColumnarBackend<S> {
    fn default() -> Self {
        ColumnarBackend::with_store(S::default())
    }
}

impl EncodedBackend {
    /// A backend with empty dictionary caches.
    pub fn new() -> Self {
        EncodedBackend::default()
    }
}

/// Generation-tagged get-or-build on one cache shard. Keys are shared
/// across concurrent sessions (two sessions' probes can touch the
/// same column), so after building the entry is re-checked under the
/// write lock: a concurrent winner's entry is adopted and ours
/// dropped. Building before locking wastes the loser's pass but never
/// serializes distinct keys. A replaced stale entry goes to `retire`.
pub(crate) fn get_or_build<K, T, E>(
    cache: &RwLock<HashMap<K, Tagged<T>>>,
    key: K,
    gen: u64,
    build: impl FnOnce() -> Result<T, E>,
    retire: impl FnOnce(&T),
) -> Result<Arc<T>, E>
where
    K: std::hash::Hash + Eq,
{
    if let Some(entry) = read_recover(cache).get(&key) {
        if entry.gen == gen {
            return Ok(Arc::clone(&entry.value));
        }
    }
    let value = Arc::new(build()?);
    let mut guard = write_recover(cache);
    if let Some(entry) = guard.get(&key) {
        if entry.gen == gen {
            return Ok(Arc::clone(&entry.value));
        }
    }
    let tagged = Tagged {
        gen,
        value: Arc::clone(&value),
    };
    if let Some(stale) = guard.insert(key, tagged) {
        retire(&stale.value);
    }
    Ok(value)
}

impl<S: ColumnStore> ColumnarBackend<S> {
    /// A backend over `store` with empty caches.
    pub(crate) fn with_store(store: S) -> Self {
        ColumnarBackend {
            store,
            columns: RwLock::new(HashMap::new()),
            encoded: RwLock::new(HashMap::new()),
        }
    }

    /// One column of `rel`, encoded once per table generation and
    /// shared out of the cache. A replaced stale entry is retired
    /// through the store (the spilled store purges its pages).
    pub(crate) fn column(
        &self,
        db: &Database,
        rel: RelId,
        attr: AttrId,
    ) -> Result<Arc<S::Column>, S::Error> {
        get_or_build(
            &self.columns,
            (rel, attr),
            db.generation(rel),
            || self.store.build(db, rel, attr),
            |stale| self.store.retire(stale),
        )
    }

    /// The cached columns of `attrs`, in order (repeats allowed).
    fn columns(
        &self,
        db: &Database,
        rel: RelId,
        attrs: &[AttrId],
    ) -> Result<Vec<Arc<S::Column>>, S::Error> {
        attrs.iter().map(|a| self.column(db, rel, *a)).collect()
    }

    /// Borrowed views of `cols`, as the kernels take them.
    fn refs(cols: &[Arc<S::Column>]) -> Vec<&S::Column> {
        cols.iter().map(Arc::as_ref).collect()
    }

    /// The resident dictionaries of `cols` — all that decoding and the
    /// join intersection read.
    fn dicts(cols: &[Arc<S::Column>]) -> Vec<&ColumnDict> {
        cols.iter().map(|c| c.dict()).collect()
    }

    /// The distinct non-NULL projected code tuples `π_{attrs}(rel)` in
    /// encoded form, shared out of the cache.
    fn encoded_set(
        &self,
        db: &Database,
        rel: RelId,
        attrs: &[AttrId],
    ) -> Result<Arc<EncodedSet>, S::Error> {
        get_or_build(
            &self.encoded,
            (rel, attrs.to_vec()),
            db.generation(rel),
            || {
                let cols = self.columns(db, rel, attrs)?;
                let refs = Self::refs(&cols);
                encode::distinct_codes(&refs, self.store.pager(), db.table(rel).len())
            },
            |_| {},
        )
    }

    /// Runs `probe`; if it fails on `rels`, the store decides how the
    /// answer is served (`reference` computes it from the extension).
    fn serve<T>(
        &self,
        db: &Database,
        rels: &[RelId],
        probe: impl FnOnce() -> Result<T, S::Error>,
        reference: impl FnOnce() -> T,
    ) -> T {
        probe().unwrap_or_else(|err| self.store.degrade(db, rels, err, reference))
    }
}

impl<S: ColumnStore> CountBackend for ColumnarBackend<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        self.serve(
            db,
            &[rel],
            || Ok(self.encoded_set(db, rel, attrs)?.len()),
            || db.table(rel).count_distinct(attrs),
        )
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        let (l, r) = (&join.left, &join.right);
        self.serve(
            db,
            &[l.rel, r.rel],
            || {
                let lcols = self.columns(db, l.rel, &l.attrs)?;
                let rcols = self.columns(db, r.rel, &r.attrs)?;
                let left = self.encoded_set(db, l.rel, &l.attrs)?;
                let right = self.encoded_set(db, r.rel, &r.attrs)?;
                let (ldicts, rdicts) = (Self::dicts(&lcols), Self::dicts(&rcols));
                Ok(JoinStats {
                    n_left: left.len(),
                    n_right: right.len(),
                    n_join: intersect_count(&ldicts, &left, &rdicts, &right),
                })
            },
            || join_stats(db, join),
        )
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        self.serve(
            db,
            &[rel],
            || {
                let cols = self.columns(db, rel, attrs)?;
                let refs = Self::refs(&cols);
                let groups = encode::lhs_groups(&refs, self.store.pager(), db.table(rel).len())?;
                Ok(Arc::new(groups))
            },
            || Arc::new(lhs_groups_reference(db, rel, attrs)),
        )
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        self.serve(
            db,
            &[rel],
            || {
                let set = self.encoded_set(db, rel, attrs)?;
                let cols = self.columns(db, rel, attrs)?;
                Ok(Arc::new(decode_set_cols(&Self::dicts(&cols), &set)))
            },
            || Arc::new(db.table(rel).distinct_projection(attrs)),
        )
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        self.serve(
            db,
            &[rel],
            || {
                let col = self.column(db, rel, attr)?;
                Ok(Arc::new(encode::partition1(&*col, self.store.pager())?))
            },
            || Arc::new(StrippedPartition::for_attribute(db.table(rel), attr)),
        )
    }

    fn prewarm(&self, db: &Database, rel: RelId) {
        // Encode every column while the rows are hot; a failed build is
        // retried (and served) by whichever probe needs the column.
        for i in 0..db.table(rel).arity() {
            let _ = self.column(db, rel, AttrId(i as u16));
        }
    }

    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        self.serve(
            db,
            &[rel],
            || {
                let col = self.column(db, rel, attr)?;
                self.store.full_dict(db, rel, attr, col).map(Some)
            },
            || None,
        )
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        // Read off the generation-cached dictionary, so the counts are
        // exactly the state the counting kernels read. The resident
        // dictionary — slim for spilled codes — carries the fused
        // per-code counts, so this never reads a code page. A failed
        // build yields no counts: the shortcuts are off, answers
        // unchanged.
        self.column(db, rel, attr)
            .ok()?
            .dict()
            .sketch()
            .map(Arc::new)
    }

    fn exec_stats(&self) -> BackendExecStats {
        self.store.exec_stats()
    }

    fn page_stats(&self) -> PageCacheStats {
        self.store.page_stats()
    }

    fn spill_stats(&self) -> SpillCacheStats {
        self.store.spill_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::deps::IndSide;
    use crate::schema::Relation;
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

    /// Every probe of the in-crate backends — both columnar stores over
    /// a one-page pool included — agrees with the reference on a
    /// NULL-bearing database (the exhaustive pinning lives in the
    /// differential proptest suites; this is the smoke test).
    #[test]
    fn in_crate_backends_agree() {
        let (db, l, r) = sample_db();
        let reference = ReferenceBackend;
        let encoded = EncodedBackend::new();
        let paged = crate::pages::PagedBackend::with_capacity_bytes(crate::pages::PAGE_BYTES);
        let backends: [&dyn CountBackend; 3] = [&reference, &encoded, &paged];
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let fd = Fd::new(
            l,
            AttrSet::from_indices([0u16]),
            AttrSet::from_indices([1u16]),
        );
        let ind = Ind::unary(l, AttrId(0), r, AttrId(0));
        for b in backends {
            let name = b.name();
            assert_eq!(b.count_distinct(&db, l, &[AttrId(0)]), 4, "{name}");
            assert_eq!(
                *b.lhs_groups(&db, l, &[AttrId(0)]),
                vec![vec![0, 1]],
                "{name}"
            );
            for attrs in [vec![AttrId(0)], vec![AttrId(0), AttrId(1)]] {
                assert_eq!(
                    b.count_distinct(&db, l, &attrs),
                    db.table(l).count_distinct(&attrs),
                    "{name}"
                );
                assert_eq!(
                    *b.lhs_groups(&db, l, &attrs),
                    lhs_groups_reference(&db, l, &attrs),
                    "{name}"
                );
                assert_eq!(
                    *b.projection(&db, l, &attrs),
                    db.table(l).distinct_projection(&attrs),
                    "{name}"
                );
            }
            assert_eq!(b.join_stats(&db, &join), join_stats(&db, &join), "{name}");
            assert_eq!(b.fd_holds(&db, &fd), db.fd_holds(&fd), "{name}");
            assert_eq!(b.ind_holds(&db, &ind), db.ind_holds(&ind), "{name}");
            assert_eq!(
                *b.partition1(&db, l, AttrId(1)),
                StrippedPartition::for_attribute(db.table(l), AttrId(1)),
                "{name}"
            );
            assert_eq!(b.exec_stats().fallback_failures, 0, "{name}");
        }
        let pool = paged.page_stats();
        assert!(
            pool.hits + pool.misses > 0,
            "paged probes must touch the pool"
        );
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

    /// A thread that panics while holding a cache write guard poisons
    /// the lock — recovery must *discard* whatever the panicking
    /// thread wrote, never serve it. The thread here deliberately
    /// plants a bogus entry (an impossible cardinality) before
    /// panicking; if recovery merely took `into_inner`, the next probe
    /// would report 999.
    #[test]
    fn poisoned_cache_is_cleared_not_served() {
        let (db, l, _) = sample_db();
        let encoded = EncodedBackend::new();
        assert_eq!(encoded.count_distinct(&db, l, &[AttrId(0)]), 4);
        let gen = db.generation(l);
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let mut guard = encoded.encoded.write().unwrap();
                guard.insert(
                    (l, vec![AttrId(0)]),
                    Tagged {
                        gen,
                        value: Arc::new(EncodedSet::Unary { card: 999 }),
                    },
                );
                panic!("poison the encoded-set cache");
            });
            assert!(handle.join().is_err(), "the planting thread must panic");
        });
        assert!(encoded.encoded.is_poisoned(), "lock must be poisoned");
        // Recovery path: the shard is purged, the probe recomputes.
        assert_eq!(encoded.count_distinct(&db, l, &[AttrId(0)]), 4);
        assert!(
            !encoded.encoded.is_poisoned(),
            "recovery must clear the poison flag so later probes see a healthy cache"
        );
    }

    /// Prewarming builds every column dictionary but changes no answer.
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
