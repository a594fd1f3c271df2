//! The memoized `‖·‖` counting engine — a generation-tagged decorator
//! over any [`CountBackend`].
//!
//! Every step of the paper's method is driven by a handful of
//! extension statistics: distinct projections (`‖r[X]‖`, §2) for the
//! three IND-Discovery cardinalities, grouped LHS classes for the
//! `A → b` extension tests of RHS-Discovery (§6.2.2), and stripped
//! partitions for the mining baselines. A pipeline asks for the same
//! projection dozens of times (each join of `Q` twice, every candidate
//! FD once per oracle round), so recomputation — whatever backend
//! computes it — is the dominant waste.
//!
//! [`StatsEngine`] memoizes *results* per `(relation, attribute-list)`
//! key, tagged with the owning table's generation counter
//! ([`Database::generation`]), so conceptualization in IND-Discovery
//! and attribute drops in Restruct — both of which mutate the
//! database — can never cause a stale count to be served: a mutated
//! table's generation moves past the tag and the entry is rebuilt on
//! next use. *How* a missing entry is built is delegated to the
//! wrapped [`CountBackend`] ([`ReferenceBackend`] scans, the default
//! [`EncodedBackend`] runs integer-code kernels over its own
//! generation-tagged dictionary cache, `dbre-sql`'s `SqlBackend`
//! executes generated SQL), which is what makes the engine one seam:
//! the pipeline, the miners, and the benches see identical semantics
//! and identical caching regardless of the backend underneath.
//!
//! Interior mutability (`RwLock` caches, atomic counters) keeps the
//! whole API on `&self`, so one engine can be shared by the parallel
//! workers of [`crate::par::par_map`] without cloning caches. Cache
//! entries racing between workers are resolved by re-checking under
//! the write lock and *adopting* a concurrent winner's entry as a hit,
//! so the hit/miss counters match the sequential schedule.
//!
//! NULL semantics are the backend contract (see [`CountBackend`]):
//! projections and [`StatsEngine::lhs_groups`] drop NULL-containing
//! rows (SQL `COUNT(DISTINCT …)`, matching [`Database::fd_holds`]),
//! while [`StatsEngine::partition_for_attrs`] keeps the mining
//! convention (NULL = NULL) of [`crate::partitions`]. The two families
//! are cached separately and never conflated.
//!
//! The engine itself implements [`CountBackend`], so anything written
//! against the seam — the miners, the differential suites — can take
//! either a raw backend or a memoizing engine through the same
//! `&dyn CountBackend` parameter. The engine inherits the seam's
//! extension tests, which read its caches: [`CountBackend::ind_holds`]
//! the memoized join statistics, and [`CountBackend::fd_holds`] the
//! cached LHS groups. [`crate::backend::g3_error`] and Restruct's
//! plurality split read the same groups, so a batch of `A → b` tests,
//! the g3 error of a failing one and the split of an enforced one
//! group the rows by `A` once.

use crate::attr::AttrId;
use crate::backend::{
    read_recover, write_recover, BackendExecStats, CountBackend, EncodedBackend, Tagged,
};
use crate::counting::{EquiJoin, JoinStats};
use crate::database::Database;
use crate::encode::ColumnDict;
use crate::partitions::StrippedPartition;
use crate::schema::RelId;
use crate::sketch::ColumnSketch;
use crate::table::ProjKey;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

#[cfg(doc)]
use crate::backend::ReferenceBackend;

/// Cached [`JoinStats`], valid while both side tables keep their
/// generations.
#[derive(Clone, Copy)]
struct TaggedJoin {
    left_gen: u64,
    right_gen: u64,
    stats: JoinStats,
}

/// Cheap observability counters, readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsCounters {
    /// Lookups answered from cache.
    pub cache_hits: u64,
    /// Lookups that had to (re)build an entry.
    pub cache_misses: u64,
    /// Table rows scanned while building cache entries. An FD test's
    /// pass over its (cached) LHS groups is not counted.
    pub rows_scanned: u64,
}

/// A cache family: one generation-tagged entry per `(rel, attrs)` key.
type AttrCache<T> = RwLock<HashMap<(RelId, Vec<AttrId>), Tagged<T>>>;

/// Memoized distinct-projection / partition / FD-group statistics over
/// one [`Database`], decorating a [`CountBackend`] (see the module
/// docs).
///
/// Generation tags are drawn from a process-global allocator
/// ([`Database::generation`]), so a tag identifies one table version
/// across *every* database clone in the process. One engine can
/// therefore be shared safely by many concurrent sessions working on
/// diverging snapshots of the same database (the service layer in
/// `dbre-core` does exactly this): sessions touching the same table
/// version share warm entries, sessions that mutated their private
/// clone get fresh tags and fresh entries, and nothing can alias.
pub struct StatsEngine {
    /// The counting implementation cache misses are delegated to.
    backend: Box<dyn CountBackend>,
    /// Memoized `‖rel[attrs]‖` counts.
    counts: AttrCache<usize>,
    projections: AttrCache<HashSet<ProjKey>>,
    partitions: AttrCache<StrippedPartition>,
    lhs_groups: AttrCache<Vec<Vec<usize>>>,
    joins: RwLock<HashMap<EquiJoin, TaggedJoin>>,
    hits: AtomicU64,
    misses: AtomicU64,
    rows_scanned: AtomicU64,
}

impl Default for StatsEngine {
    fn default() -> Self {
        StatsEngine::new()
    }
}

impl StatsEngine {
    /// An engine over the default [`EncodedBackend`], with empty
    /// caches and zeroed counters.
    pub fn new() -> Self {
        StatsEngine::with_backend(Box::new(EncodedBackend::new()))
    }

    /// An engine decorating `backend` with generation-tagged result
    /// caches.
    pub fn with_backend(backend: Box<dyn CountBackend>) -> Self {
        StatsEngine {
            backend,
            counts: RwLock::default(),
            projections: RwLock::default(),
            partitions: RwLock::default(),
            lhs_groups: RwLock::default(),
            joins: RwLock::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rows_scanned: AtomicU64::new(0),
        }
    }

    /// The wrapped backend's name (`"reference"`, `"encoded"`,
    /// `"sql"`, …).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Serves `cache[key]` when its tag matches `gen`, otherwise runs
    /// `build` and inserts. `build` returns the value plus the rows
    /// scanned to produce it (charged to the counters on a miss only).
    ///
    /// Cache keys can be shared across concurrent probes (parallel FD
    /// checks share an LHS, parallel joins share a side), so after
    /// building the entry is re-checked under the write lock: if a
    /// concurrent prober beat us, its entry is adopted as a *hit* and
    /// ours dropped. Counters then match the sequential schedule
    /// exactly — one miss per cold key — keeping the `parallel`
    /// feature's byte-identical-output guarantee. Building before
    /// locking wastes the loser's pass but never serializes distinct
    /// keys.
    fn cached<K, T>(
        &self,
        cache: &RwLock<HashMap<K, Tagged<T>>>,
        key: K,
        gen: u64,
        build: impl FnOnce() -> (Arc<T>, u64),
    ) -> Arc<T>
    where
        K: std::hash::Hash + Eq,
    {
        if let Some(entry) = read_recover(cache).get(&key) {
            if entry.gen == gen {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.value);
            }
        }
        let (value, rows) = build();
        let mut guard = write_recover(cache);
        if let Some(entry) = guard.get(&key) {
            if entry.gen == gen {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.value);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
        guard.insert(
            key,
            Tagged {
                gen,
                value: Arc::clone(&value),
            },
        );
        value
    }

    /// `‖rel[attrs]‖` — the paper's cardinality query, memoized.
    pub fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        let gen = db.generation(rel);
        *self.cached(&self.counts, (rel, attrs.to_vec()), gen, || {
            (
                Arc::new(self.backend.count_distinct(db, rel, attrs)),
                db.table(rel).len() as u64,
            )
        })
    }

    /// The distinct projection `π_{attrs}(rel)` (NULL rows dropped) as
    /// `Value` tuples, shared out of the cache. Kept for consumers
    /// that need the actual values (e.g. materializing a
    /// conceptualized intersection); counting paths stay on
    /// [`StatsEngine::count_distinct`].
    pub fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        let gen = db.generation(rel);
        self.cached(&self.projections, (rel, attrs.to_vec()), gen, || {
            (
                self.backend.projection(db, rel, attrs),
                db.table(rel).len() as u64,
            )
        })
    }

    /// The three IND-Discovery cardinalities for `join`, memoized per
    /// join and valid while both side tables keep their generations.
    pub fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        let left_gen = db.generation(join.left.rel);
        let right_gen = db.generation(join.right.rel);
        if let Some(entry) = read_recover(&self.joins).get(join) {
            if entry.left_gen == left_gen && entry.right_gen == right_gen {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return entry.stats;
            }
        }
        let stats = self.backend.join_stats(db, join);
        let mut joins = write_recover(&self.joins);
        if let Some(entry) = joins.get(join) {
            if entry.left_gen == left_gen && entry.right_gen == right_gen {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return entry.stats;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.rows_scanned
            .fetch_add(stats.n_left.min(stats.n_right) as u64, Ordering::Relaxed);
        joins.insert(
            join.clone(),
            TaggedJoin {
                left_gen,
                right_gen,
                stats,
            },
        );
        stats
    }

    /// The stripped partition `π_{attr}` (mining convention:
    /// NULL = NULL), shared out of the cache.
    pub fn partition(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        self.partition_for_attrs(db, rel, &[attr])
    }

    /// The stripped partition `π_{attrs}`, built by products of cached
    /// unary partitions (each from the backend) and itself cached.
    pub fn partition_for_attrs(
        &self,
        db: &Database,
        rel: RelId,
        attrs: &[AttrId],
    ) -> Arc<StrippedPartition> {
        let gen = db.generation(rel);
        self.cached(
            &self.partitions,
            (rel, attrs.to_vec()),
            gen,
            || match attrs {
                [] => (
                    Arc::new(StrippedPartition::single_class(db.table(rel).len())),
                    db.table(rel).len() as u64,
                ),
                [a] => (
                    self.backend.partition1(db, rel, *a),
                    db.table(rel).len() as u64,
                ),
                [first, rest @ ..] => {
                    // Chain products of cached unary partitions; each
                    // product touches at most the surviving class rows.
                    let mut rows = 0u64;
                    let mut p = (*self.partition(db, rel, *first)).clone();
                    for a in rest {
                        rows += p.error() as u64;
                        p = p.product(&self.partition(db, rel, *a));
                    }
                    (Arc::new(p), rows)
                }
            },
        )
    }

    /// Row-index groups (size ≥ 2) agreeing on `attrs` under **SQL
    /// semantics** — rows with a NULL in `attrs` are skipped, exactly
    /// like [`Database::fd_holds`]. Deterministically ordered, shared
    /// out of the cache.
    pub fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        let gen = db.generation(rel);
        self.cached(&self.lhs_groups, (rel, attrs.to_vec()), gen, || {
            (
                self.backend.lhs_groups(db, rel, attrs),
                db.table(rel).len() as u64,
            )
        })
    }

    /// Prewarms `rel`: lets the backend build its internal structures
    /// while the rows are hot (e.g. right after a CSV import) and
    /// primes the unary count cache, so the first statistics query
    /// after an import is a cache hit instead of a rebuild.
    pub fn prewarm(&self, db: &Database, rel: RelId) {
        self.backend.prewarm(db, rel);
        for i in 0..db.table(rel).arity() {
            self.count_distinct(db, rel, &[AttrId(i as u16)]);
        }
    }

    /// A snapshot of the observability counters.
    pub fn counters(&self) -> StatsCounters {
        StatsCounters {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters (cache contents are kept).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.rows_scanned.store(0, Ordering::Relaxed);
    }

    /// The inner backend's execution counters ([`BackendExecStats`]) —
    /// the decorator adds nothing of its own, so a nonzero
    /// `fallback_failures` here is always the backend confessing.
    pub fn exec_stats(&self) -> BackendExecStats {
        self.backend.exec_stats()
    }

    /// The inner backend's page-cache counters
    /// ([`crate::bufpool::PageCacheStats`]) — all-zero unless the
    /// paged backend is underneath.
    pub fn page_stats(&self) -> crate::bufpool::PageCacheStats {
        self.backend.page_stats()
    }

    /// The inner backend's spill-cache counters
    /// ([`crate::spill::SpillCacheStats`]) — all-zero unless the
    /// paged backend adopted streamed-ingest tables.
    pub fn spill_stats(&self) -> crate::spill::SpillCacheStats {
        self.backend.spill_stats()
    }
}

// Compile-time proof that the engine, every in-crate backend, the
// buffer pool under them, and the snapshot type stay `Send + Sync` —
// the concurrent service in `dbre-core` depends on it, and a stray
// `Rc` or `Cell` slipping into a cache would otherwise surface only as
// a distant trait-bound error there. (`dbre-sql` asserts the same for
// its `SqlBackend`.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StatsEngine>();
    assert_send_sync::<crate::backend::ReferenceBackend>();
    assert_send_sync::<EncodedBackend>();
    assert_send_sync::<crate::pages::PagedBackend>();
    assert_send_sync::<crate::bufpool::BufferPool>();
    assert_send_sync::<crate::snapshot::DbSnapshot>();
};

/// The memoizing engine is itself a backend: consumers written against
/// the seam (`&dyn CountBackend`) can be handed a raw backend or a
/// caching engine interchangeably.
impl CountBackend for StatsEngine {
    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        StatsEngine::count_distinct(self, db, rel, attrs)
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        StatsEngine::join_stats(self, db, join)
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        StatsEngine::lhs_groups(self, db, rel, attrs)
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        StatsEngine::projection(self, db, rel, attrs)
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        StatsEngine::partition(self, db, rel, attr)
    }

    fn prewarm(&self, db: &Database, rel: RelId) {
        StatsEngine::prewarm(self, db, rel);
    }

    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        self.backend.column_dict(db, rel, attr)
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        // The counts are read off the backend's generation-cached
        // dictionaries; forwarding keeps the engine transparent and
        // the hit/miss counters honest.
        self.backend.column_sketch(db, rel, attr)
    }

    fn exec_stats(&self) -> BackendExecStats {
        StatsEngine::exec_stats(self)
    }

    fn page_stats(&self) -> crate::bufpool::PageCacheStats {
        StatsEngine::page_stats(self)
    }

    fn spill_stats(&self) -> crate::spill::SpillCacheStats {
        StatsEngine::spill_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::backend::ReferenceBackend;
    use crate::counting::join_stats;
    use crate::deps::{Fd, Ind, IndSide};
    use crate::schema::Relation;
    use crate::value::{Domain, Value};

    fn two_table_db() -> (Database, RelId, RelId) {
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
        for c in [1, 2, 3, 9] {
            db.insert(r, vec![Value::Int(c)]).unwrap();
        }
        (db, l, r)
    }

    /// Engines over every in-crate backend (the cross-crate SQL
    /// backend joins this matrix in the `dbre-sql` differential).
    fn engines() -> Vec<StatsEngine> {
        vec![
            StatsEngine::with_backend(Box::new(ReferenceBackend)),
            StatsEngine::with_backend(Box::new(EncodedBackend::new())),
        ]
    }

    #[test]
    fn join_stats_matches_naive_and_hits_cache() {
        let (db, l, r) = two_table_db();
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        for engine in engines() {
            let first = engine.join_stats(&db, &join);
            assert_eq!(first, join_stats(&db, &join), "{}", engine.backend_name());
            let misses_after_first = engine.counters().cache_misses;
            let second = engine.join_stats(&db, &join);
            assert_eq!(second, first);
            let c = engine.counters();
            assert_eq!(
                c.cache_misses, misses_after_first,
                "second call must not rebuild"
            );
            assert!(c.cache_hits >= 1);
        }
    }

    #[test]
    fn insert_invalidates_served_counts() {
        let (mut db, l, r) = two_table_db();
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let engine = StatsEngine::new();
        let before = engine.join_stats(&db, &join);
        db.insert(r, vec![Value::Int(4)]).unwrap();
        let after = engine.join_stats(&db, &join);
        assert_eq!(after, join_stats(&db, &join));
        assert_eq!(after.n_right, before.n_right + 1);
        assert_eq!(after.n_join, before.n_join + 1);
    }

    #[test]
    fn adding_a_new_relation_keeps_existing_entries_valid() {
        let (mut db, l, _) = two_table_db();
        let engine = StatsEngine::new();
        engine.projection(&db, l, &[AttrId(0)]);
        let misses = engine.counters().cache_misses;
        // Conceptualization mid-discovery adds relations; that must
        // not invalidate entries of untouched tables.
        db.add_relation(Relation::of("New", &[("x", Domain::Int)]))
            .unwrap();
        engine.projection(&db, l, &[AttrId(0)]);
        assert_eq!(engine.counters().cache_misses, misses);
    }

    #[test]
    fn fd_holds_agrees_with_database_including_null_lhs() {
        let mut db = Database::new();
        let t = db
            .add_relation(Relation::of("T", &[("x", Domain::Int), ("y", Domain::Int)]))
            .unwrap();
        for row in [
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Null, Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(2), Value::Int(20)],
        ] {
            db.insert(t, row).unwrap();
        }
        let fd = Fd::new(
            t,
            AttrSet::from_indices([0u16]),
            AttrSet::from_indices([1u16]),
        );
        for engine in engines() {
            // NULL-LHS rows are skipped under SQL semantics, so x → y
            // holds.
            assert!(engine.fd_holds(&db, &fd), "{}", engine.backend_name());
            assert_eq!(engine.fd_holds(&db, &fd), db.fd_holds(&fd));
        }
        // Break it and confirm the engine notices (generation bump).
        let engine = StatsEngine::new();
        assert!(engine.fd_holds(&db, &fd));
        db.insert(t, vec![Value::Int(1), Value::Int(99)]).unwrap();
        assert!(!engine.fd_holds(&db, &fd));
        assert_eq!(engine.fd_holds(&db, &fd), db.fd_holds(&fd));
    }

    #[test]
    fn ind_holds_agrees_with_database() {
        let (db, l, r) = two_table_db();
        for engine in engines() {
            for (lhs, rhs) in [(l, r), (r, l)] {
                let ind = Ind::unary(lhs, AttrId(0), rhs, AttrId(0));
                assert_eq!(engine.ind_holds(&db, &ind), db.ind_holds(&ind), "{ind}");
            }
        }
    }

    #[test]
    fn partitions_match_direct_construction() {
        let (db, l, _) = two_table_db();
        for engine in engines() {
            let direct = StrippedPartition::for_attrs(db.table(l), &[AttrId(0), AttrId(1)]);
            let cached = engine.partition_for_attrs(&db, l, &[AttrId(0), AttrId(1)]);
            assert_eq!(*cached, direct, "{}", engine.backend_name());
            // Unary partitions were cached along the way.
            let before = engine.counters();
            engine.partition(&db, l, AttrId(0));
            let after = engine.counters();
            assert_eq!(after.cache_misses, before.cache_misses);
            assert_eq!(after.cache_hits, before.cache_hits + 1);
        }
    }

    #[test]
    fn engine_is_a_backend_itself() {
        let (db, l, r) = two_table_db();
        let engine = StatsEngine::new();
        let seam: &dyn CountBackend = &engine;
        assert_eq!(seam.name(), "encoded");
        assert_eq!(
            seam.count_distinct(&db, l, &[AttrId(0)]),
            db.table(l).count_distinct(&[AttrId(0)])
        );
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        assert_eq!(seam.join_stats(&db, &join), join_stats(&db, &join));
        // Probes through the trait land in the same caches.
        assert!(engine.counters().cache_misses > 0);
        seam.count_distinct(&db, l, &[AttrId(0)]);
        assert!(engine.counters().cache_hits > 0);
    }

    #[test]
    fn counters_reset() {
        let (db, l, _) = two_table_db();
        let engine = StatsEngine::new();
        engine.projection(&db, l, &[AttrId(0)]);
        assert!(engine.counters().cache_misses > 0);
        engine.reset_counters();
        assert_eq!(engine.counters(), StatsCounters::default());
    }
}
