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
//! Two backends live here — [`ReferenceBackend`] (the `Value`-based
//! reference semantics) and [`EncodedBackend`] (the dictionary-encoded
//! kernels, owning the per-column dictionary cache). The SQL backend
//! lives in `dbre-sql` (`SqlBackend`), respecting the dependency
//! direction: this crate knows nothing about SQL.
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
    decode_set_cols, distinct_codes_cols, intersect_count, lhs_groups_cols, partition1_col,
    ColumnDict, DictTable, EncodedSet,
};
use crate::partitions::StrippedPartition;
use crate::schema::RelId;
use crate::sketch::ColumnSketch;
use crate::spill::SpillCacheStats;
use crate::table::ProjKey;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
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
/// supertrait so one backend can serve the parallel workers of
/// [`crate::par::par_map`] through a shared reference.
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
///   answer as [`Database::fd_holds`];
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
    /// the raw values (`NULL = NULL`, `NaN = NaN` by bit key). The
    /// default builds on [`lhs_groups`](CountBackend::lhs_groups) and
    /// touches only the grouped rows.
    fn fd_holds(&self, db: &Database, fd: &Fd) -> bool {
        let lhs: Vec<AttrId> = fd.lhs.iter().collect();
        let rhs: Vec<AttrId> = fd.rhs.iter().collect();
        let groups = self.lhs_groups(db, fd.rel, &lhs);
        let table = db.table(fd.rel);
        let rcols: Vec<&[Value]> = rhs.iter().map(|a| table.column(*a)).collect();
        groups.iter().all(|group| {
            let first = group[0];
            group[1..]
                .iter()
                .all(|&i| rcols.iter().all(|c| c[i] == c[first]))
        })
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

    /// The backend's dictionary encoding of one column, when it
    /// maintains one — the dict-access seam for consumers that need
    /// per-row codes or values of a column whose raw cells may not be
    /// resident: key inference reads NULL-freeness off it, RHS-Discovery
    /// computes a streamed table's g3 error over its codes, and
    /// Restruct hydrates streamed columns from it. Codes come from the
    /// same generation-tagged cache as every counting probe. Backends
    /// without an encoding return `None`.
    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        let _ = (db, rel, attr);
        None
    }

    /// The backend's sketch of one column
    /// ([`crate::sketch::ColumnSketch`]: exact distinct hashes, HLL,
    /// blocked Bloom), when it can produce one cheaply and *soundly* —
    /// the prefilter seam the discovery stages consult before paying
    /// for exact kernels. `None` (the default) disables pruning for
    /// the column, which is always correct: sketches only ever
    /// suppress work whose result they prove, so their absence merely
    /// costs speed. Implementations must derive the sketch from the
    /// same generation-consistent state that serves their counting
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

/// The dictionary-encoded backend (PR 3 kernels): each column a probe
/// touches is interned once per table generation into a
/// [`ColumnDict`], and counting / grouping / partitioning / join
/// kernels run on dense `u32` codes instead of cloning `Value` tuples
/// per row.
///
/// The per-column dictionaries and the per-projection encoded sets are
/// cached *inside* the backend, tagged with [`Database::generation`]
/// so a mutated table can never serve stale codes. Encoding lazily per
/// column matters on the paper's workloads: a query set `Q` joins a
/// handful of key columns of wide denormalized relations, so encoding
/// whole tables up front would dominate the cold path the encoding is
/// meant to speed up.
#[derive(Default)]
pub struct EncodedBackend {
    /// Per-column dictionary encodings, keyed per
    /// `(relation, attribute)` so a probe touching two columns of a
    /// wide table pays for exactly those two builds.
    columns: RwLock<HashMap<(RelId, AttrId), Tagged<ColumnDict>>>,
    /// Encoded distinct-code sets per `(rel, attrs)` — shared between
    /// counts, projections and every join side touching them.
    encoded: ProjectionCache<EncodedSet>,
}

impl EncodedBackend {
    /// A backend with empty dictionary caches.
    pub fn new() -> Self {
        EncodedBackend::default()
    }

    /// The dictionary encoding of one column of `rel`, built once per
    /// table generation and shared out of the cache. The returned
    /// `Arc` is safe to share read-only across parallel workers.
    pub fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<ColumnDict> {
        let gen = db.generation(rel);
        let key = (rel, attr);
        if let Some(entry) = read_recover(&self.columns).get(&key) {
            if entry.gen == gen {
                return Arc::clone(&entry.value);
            }
        }
        let value = Arc::new(ColumnDict::build(db.table(rel).column(attr)));
        // Column keys are shared across concurrent probes (two
        // parallel join probes can touch the same column), so re-check
        // under the write lock: if a concurrent prober beat us, adopt
        // its entry and drop ours. Building before locking wastes the
        // loser's pass but never serializes distinct columns.
        let mut columns = write_recover(&self.columns);
        if let Some(entry) = columns.get(&key) {
            if entry.gen == gen {
                return Arc::clone(&entry.value);
            }
        }
        columns.insert(
            key,
            Tagged {
                gen,
                value: Arc::clone(&value),
            },
        );
        value
    }

    /// The cached column dictionaries of `attrs`, in order (repeats
    /// allowed).
    fn attr_dicts(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Vec<Arc<ColumnDict>> {
        attrs
            .iter()
            .map(|a| self.column_dict(db, rel, *a))
            .collect()
    }

    /// The dictionary encoding of `rel`'s *whole* table, assembled
    /// from the per-column cache (cheap `Arc` clones for already-warm
    /// columns). Whole-table consumers — CSV import prewarming, batch
    /// FD checks via `check_encoded` — use this; statistic probes go
    /// through the per-column kernels and never force untouched
    /// columns to encode.
    pub fn dict(&self, db: &Database, rel: RelId) -> Arc<DictTable> {
        let table = db.table(rel);
        let columns = (0..table.arity())
            .map(|i| self.column_dict(db, rel, AttrId(i as u16)))
            .collect();
        Arc::new(DictTable::from_columns(columns, table.len()))
    }

    /// The distinct non-NULL projected code tuples `π_{attrs}(rel)` in
    /// encoded form, shared out of the cache.
    fn encoded_set(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<EncodedSet> {
        let gen = db.generation(rel);
        let key = (rel, attrs.to_vec());
        if let Some(entry) = read_recover(&self.encoded).get(&key) {
            if entry.gen == gen {
                return Arc::clone(&entry.value);
            }
        }
        let dicts = self.attr_dicts(db, rel, attrs);
        let cols: Vec<&ColumnDict> = dicts.iter().map(Arc::as_ref).collect();
        let value = Arc::new(distinct_codes_cols(&cols, db.table(rel).len()));
        let mut encoded = write_recover(&self.encoded);
        if let Some(entry) = encoded.get(&key) {
            if entry.gen == gen {
                return Arc::clone(&entry.value);
            }
        }
        encoded.insert(
            key,
            Tagged {
                gen,
                value: Arc::clone(&value),
            },
        );
        value
    }
}

impl CountBackend for EncodedBackend {
    fn name(&self) -> &'static str {
        "encoded"
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        self.encoded_set(db, rel, attrs).len()
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        let ldicts = self.attr_dicts(db, join.left.rel, &join.left.attrs);
        let rdicts = self.attr_dicts(db, join.right.rel, &join.right.attrs);
        let left = self.encoded_set(db, join.left.rel, &join.left.attrs);
        let right = self.encoded_set(db, join.right.rel, &join.right.attrs);
        let lcols: Vec<&ColumnDict> = ldicts.iter().map(Arc::as_ref).collect();
        let rcols: Vec<&ColumnDict> = rdicts.iter().map(Arc::as_ref).collect();
        let n_join = intersect_count(&lcols, &left, &rcols, &right);
        JoinStats {
            n_left: left.len(),
            n_right: right.len(),
            n_join,
        }
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        let dicts = self.attr_dicts(db, rel, attrs);
        let cols: Vec<&ColumnDict> = dicts.iter().map(Arc::as_ref).collect();
        Arc::new(lhs_groups_cols(&cols, db.table(rel).len()))
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        let set = self.encoded_set(db, rel, attrs);
        let dicts = self.attr_dicts(db, rel, attrs);
        let cols: Vec<&ColumnDict> = dicts.iter().map(Arc::as_ref).collect();
        Arc::new(decode_set_cols(&cols, &set))
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        // Array-bucket build over the code domain — no hashing.
        Arc::new(partition1_col(&self.column_dict(db, rel, attr)))
    }

    fn prewarm(&self, db: &Database, rel: RelId) {
        // Interning every column while the rows are hot is exactly
        // assembling the whole-table dictionary.
        self.dict(db, rel);
    }

    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        Some(EncodedBackend::column_dict(self, db, rel, attr))
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        // Lazily attached to the generation-cached dictionary, so the
        // sketch always summarizes exactly the state the counting
        // kernels read (and is built at most once per generation).
        EncodedBackend::column_dict(self, db, rel, attr).sketch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::deps::IndSide;
    use crate::schema::Relation;
    use crate::value::Domain;

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

    /// Every probe of the two in-crate backends agrees on a NULL-bearing
    /// database (the exhaustive pinning lives in the differential
    /// proptest suites; this is the smoke test).
    #[test]
    fn reference_and_encoded_agree() {
        let (db, l, r) = sample_db();
        let reference = ReferenceBackend;
        let encoded = EncodedBackend::new();
        let backends: [&dyn CountBackend; 2] = [&reference, &encoded];
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let fd = Fd::new(
            l,
            AttrSet::from_indices([0u16]),
            AttrSet::from_indices([1u16]),
        );
        let ind = Ind::unary(l, AttrId(0), r, AttrId(0));
        for b in backends {
            assert_eq!(b.count_distinct(&db, l, &[AttrId(0)]), 4, "{}", b.name());
            assert_eq!(b.join_stats(&db, &join), join_stats(&db, &join));
            assert_eq!(*b.lhs_groups(&db, l, &[AttrId(0)]), vec![vec![0, 1]]);
            assert_eq!(b.fd_holds(&db, &fd), db.fd_holds(&fd));
            assert_eq!(b.ind_holds(&db, &ind), db.ind_holds(&ind));
            assert_eq!(
                *b.projection(&db, l, &[AttrId(0)]),
                db.table(l).distinct_projection(&[AttrId(0)])
            );
            assert_eq!(
                *b.partition1(&db, l, AttrId(1)),
                StrippedPartition::for_attribute(db.table(l), AttrId(1))
            );
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
