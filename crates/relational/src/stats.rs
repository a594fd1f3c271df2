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
//! [`StatsEngine`] memoizes *results* in seven caches — counts,
//! projections, unary partitions, LHS groups, resident column codes,
//! g3 errors and join statistics — each keyed by `(relation,
//! attributes)`, by
//! FD or by join, and tagged with the owning table's generation
//! counter ([`Database::generation`]; a join's tag is both sides'
//! generations). Conceptualization in IND-Discovery and attribute
//! drops in Restruct — both of which mutate the database — can
//! therefore never cause a stale count to be served: a mutated table's
//! generation moves past the tag and the entry is rebuilt on next use.
//! *How* a missing entry is built is delegated to the wrapped
//! [`CountBackend`] ([`ReferenceBackend`] scans decoded cells, the
//! default [`EncodedBackend`] runs integer-code kernels over the
//! tables' dictionary columns, `dbre-sql`'s `SqlBackend` executes
//! generated SQL), which is what makes the engine one seam: the
//! pipeline, the miners, and the benches see identical semantics and
//! identical caching regardless of the backend underneath.
//!
//! The seven caches and the columnar backend's one are one crate-private
//! memo type (`memo.rs`): it keeps the whole API on `&self`, so the
//! concurrent sessions of `dbre-core`'s `run_service` share one engine,
//! and charges each cold key one miss when two sessions race to build
//! it. The engine counts hits, misses and rows scanned from what the
//! memo served. Its probes are its [`CountBackend`] implementation, so
//! the miners, the differential suites and the pipeline take a raw
//! backend or a memoizing engine through the same `&dyn CountBackend`.
//!
//! NULL semantics are the backend contract (see [`CountBackend`]):
//! projections and [`CountBackend::lhs_groups`] drop NULL-containing
//! rows (SQL `COUNT(DISTINCT …)`, matching [`Database::fd_holds`]),
//! while [`CountBackend::partition1`] keeps the mining convention
//! (NULL = NULL) of [`crate::partitions`]. The two families are cached
//! separately and never conflated.
//!
//! The engine inherits the seam's extension tests, which read its
//! caches: [`CountBackend::ind_holds`] the memoized join statistics,
//! and [`CountBackend::fd_holds`] the cached g3 error. Every FD
//! question — the test, the g3 error of a failing one and Restruct's
//! split of an enforced one ([`crate::backend::pluralities`]) — reads
//! the cached LHS groups and the per-row codes of the RHS columns
//! ([`CountBackend::column_dict`]: a resident column as it is, a paged
//! one read once per generation), so a batch of `A → b` tests groups
//! the rows by `A` once, reads each `b` once, and asks each FD once.

use crate::attr::AttrId;
use crate::backend::{g3_error, BackendExecStats, CountBackend, EncodedBackend};
use crate::counting::{EquiJoin, JoinStats};
use crate::database::Database;
use crate::deps::Fd;
use crate::encode::ColumnDict;
use crate::memo::{Memo, Served};
use crate::partitions::StrippedPartition;
use crate::schema::RelId;
use crate::sketch::ColumnSketch;
use crate::table::ProjKey;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(doc)]
use crate::backend::ReferenceBackend;

/// Cheap observability counters, readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsCounters {
    /// Lookups answered from cache.
    pub cache_hits: u64,
    /// Lookups that had to (re)build an entry.
    pub cache_misses: u64,
    /// Table rows scanned while building cache entries. A g3 error's
    /// pass over its (cached) LHS groups is not counted.
    pub rows_scanned: u64,
}

/// The key of a probe over an attribute list of one relation.
type Projection = (RelId, Vec<AttrId>);

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
    counts: Memo<Projection, usize>,
    projections: Memo<Projection, Arc<HashSet<ProjKey>>>,
    partitions: Memo<(RelId, AttrId), Arc<StrippedPartition>>,
    lhs_groups: Memo<Projection, Arc<Vec<Vec<usize>>>>,
    /// The columns FD questions and Restruct's split read, codes
    /// resident: a paged column's pages are read once per generation.
    dicts: Memo<(RelId, AttrId), Option<Arc<ColumnDict>>>,
    /// g3 errors per FD, tagged with the generation of its relation.
    fd_errors: Memo<Fd, f64>,
    /// Join statistics, tagged with both sides' generations.
    joins: Memo<EquiJoin, JoinStats, (u64, u64)>,
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
            counts: Memo::default(),
            projections: Memo::default(),
            partitions: Memo::default(),
            lhs_groups: Memo::default(),
            dicts: Memo::default(),
            fd_errors: Memo::default(),
            joins: Memo::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rows_scanned: AtomicU64::new(0),
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

    /// Counts what a memo lookup took — a hit, or a miss whose build
    /// scanned `rows` — and returns its value.
    fn tally<V>(&self, served: Served<V>, rows: usize) -> V {
        if served.hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.rows_scanned.fetch_add(rows as u64, Ordering::Relaxed);
        }
        served.value
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

/// The engine's probes: each serves its memo's entry at the probed
/// tables' generations, or builds it through the wrapped backend.
/// Being a backend itself, the engine can be handed to anything
/// written against the seam (`&dyn CountBackend`) in place of a raw
/// backend.
impl CountBackend for StatsEngine {
    /// The wrapped backend's name (`"reference"`, `"encoded"`,
    /// `"sql"`, …).
    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        let served = self
            .counts
            .get_or_init((rel, attrs.to_vec()), db.generation(rel), || {
                self.backend.count_distinct(db, rel, attrs)
            });
        self.tally(served, db.table(rel).len())
    }

    /// Memoized per join, valid while both side tables keep their
    /// generations.
    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        let tag = (db.generation(join.left.rel), db.generation(join.right.rel));
        let served = self
            .joins
            .get_or_init(join.clone(), tag, || self.backend.join_stats(db, join));
        let rows = served.value.n_left.min(served.value.n_right);
        self.tally(served, rows)
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        let served = self
            .lhs_groups
            .get_or_init((rel, attrs.to_vec()), db.generation(rel), || {
                self.backend.lhs_groups(db, rel, attrs)
            });
        self.tally(served, db.table(rel).len())
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        let served =
            self.projections
                .get_or_init((rel, attrs.to_vec()), db.generation(rel), || {
                    self.backend.projection(db, rel, attrs)
                });
        self.tally(served, db.table(rel).len())
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        let served = self
            .partitions
            .get_or_init((rel, attr), db.generation(rel), || {
                self.backend.partition1(db, rel, attr)
            });
        self.tally(served, db.table(rel).len())
    }

    /// Served by the backend once per table generation.
    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        let served = self.dicts.get_or_init((rel, attr), db.generation(rel), || {
            self.backend.column_dict(db, rel, attr)
        });
        self.tally(served, db.table(rel).len())
    }

    /// Computed once per generation of the FD's relation from the
    /// cached LHS groups and column codes. Its pass over the grouped
    /// rows is not counted as scanned.
    fn fd_error(&self, db: &Database, fd: &Fd) -> f64 {
        let served = self
            .fd_errors
            .get_or_init(fd.clone(), db.generation(fd.rel), || g3_error(self, db, fd));
        self.tally(served, 0)
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        // The counts are read off the table's column; forwarding keeps
        // the engine transparent and the hit/miss counters honest.
        self.backend.column_sketch(db, rel, attr)
    }

    /// The decorator adds nothing of its own, so a nonzero
    /// `fallback_failures` here is always the backend confessing.
    fn exec_stats(&self) -> BackendExecStats {
        self.backend.exec_stats()
    }

    fn page_stats(&self) -> crate::bufpool::PageCacheStats {
        self.backend.page_stats()
    }

    fn spill_stats(&self) -> crate::spill::SpillCacheStats {
        self.backend.spill_stats()
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
            assert_eq!(first, join_stats(&db, &join), "{}", engine.name());
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
        // The right side moves: its half of the join's tag is stale.
        db.insert(r, vec![Value::Int(4)]).unwrap();
        let after = engine.join_stats(&db, &join);
        assert_eq!(after, join_stats(&db, &join));
        assert_eq!(after.n_right, before.n_right + 1);
        assert_eq!(after.n_join, before.n_join + 1);
        // Then the left side: the right half still matches, the left
        // half alone must invalidate the entry.
        db.insert(l, vec![Value::Int(9), Value::Int(90)]).unwrap();
        let misses = engine.counters().cache_misses;
        let last = engine.join_stats(&db, &join);
        assert!(engine.counters().cache_misses > misses, "rebuilt");
        assert_eq!(last, join_stats(&db, &join));
        assert_eq!(last.n_left, after.n_left + 1);
        assert_eq!(last.n_right, after.n_right);
        assert_eq!(last.n_join, after.n_join + 1);
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
            assert!(engine.fd_holds(&db, &fd), "{}", engine.name());
            assert_eq!(engine.fd_holds(&db, &fd), db.fd_holds(&fd));
        }
        // Break it and confirm the engine notices (generation bump).
        let engine = StatsEngine::new();
        assert!(engine.fd_holds(&db, &fd));
        db.insert(t, vec![Value::Int(1), Value::Int(99)]).unwrap();
        assert!(!engine.fd_holds(&db, &fd));
        assert_eq!(engine.fd_holds(&db, &fd), db.fd_holds(&fd));
    }

    /// The cached g3 error is tagged with its relation's generation: a
    /// mutation is seen by the very next ask, which rebuilds the LHS
    /// groups and the RHS codes it reads, while an untouched relation's
    /// answer stays a hit.
    #[test]
    fn mutation_invalidates_a_cached_g3_error() {
        for engine in engines() {
            let (mut db, l, r) = two_table_db();
            let fd = Fd::new(
                l,
                AttrSet::from_indices([1u16]),
                AttrSet::from_indices([0u16]),
            );
            let other = Fd::new(r, AttrSet::empty(), AttrSet::from_indices([0u16]));
            // b → a: the group b=20 holds a=2 and a=3, one of 5 rows
            // to delete; R's four distinct rows lose three.
            assert_eq!(engine.fd_error(&db, &fd), 1.0 / 5.0);
            assert_eq!(engine.fd_error(&db, &other), 3.0 / 4.0);
            db.insert(l, vec![Value::Int(5), Value::Int(20)]).unwrap();
            let misses = engine.counters().cache_misses;
            assert_eq!(engine.fd_error(&db, &fd), 2.0 / 6.0, "{}", engine.name());
            assert!(
                engine.counters().cache_misses > misses,
                "the stale entry is rebuilt"
            );
            let misses = engine.counters().cache_misses;
            assert_eq!(engine.fd_error(&db, &other), 3.0 / 4.0);
            assert_eq!(
                engine.counters().cache_misses,
                misses,
                "R kept its generation"
            );
        }
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
            for a in [AttrId(0), AttrId(1)] {
                let direct = StrippedPartition::for_attribute(db.table(l), a);
                let cached = engine.partition1(&db, l, a);
                assert_eq!(*cached, direct, "{}", engine.name());
            }
            // A second ask is served from the cache.
            let before = engine.counters();
            engine.partition1(&db, l, AttrId(0));
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
