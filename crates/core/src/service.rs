//! Concurrent DBRE service: many pipeline sessions over one shared
//! database snapshot and one shared counting engine.
//!
//! The paper's method is interactive — one expert, one dialogue — but
//! a reverse-engineering *service* answers many analysts at once:
//! each gets a private session (own oracle, own copy-on-write database
//! clone, own audit log) while every `‖·‖` probe lands in one shared
//! [`StatsEngine`]. Sharing is safe because cache entries are keyed by
//! process-globally-unique generation tags (see
//! [`StatsEngine`]'s docs): sessions probing the same table version
//! share warm entries; a session that mutates its private clone
//! (conceptualization, restructuring) gets fresh tags and fresh
//! entries, invisible to its neighbors.
//!
//! Determinism is preserved per session: a session's decision log
//! depends only on its snapshot and its oracle, never on scheduling —
//! caching can change *timing*, not *answers* — so N concurrent
//! sessions over the same snapshot and equivalent oracles produce N
//! byte-identical logs, equal to a serial run's. The throughput
//! benchmark gates on exactly that.

use crate::oracle::{FdContext, HiddenContext, NamingContext, NeiContext, NeiDecision, Oracle};
use crate::pipeline::{PipelineOptions, PipelineResult};
use crate::session::{stages, DbreSession};
use dbre_relational::counting::EquiJoin;
use dbre_relational::snapshot::DbSnapshot;
use dbre_relational::stats::StatsEngine;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Decorator measuring the *presumption latency* of a run: the time
/// the pipeline computes between successive oracle questions (the
/// expert's waiting time, which is what a service must keep low).
/// Each inner answer is forwarded unchanged, so timing never alters
/// decisions.
#[derive(Debug)]
pub struct TimingOracle<O> {
    inner: O,
    last: Instant,
    /// Computation interval preceding each question, in ask order.
    pub latencies: Vec<Duration>,
}

impl<O: Oracle> TimingOracle<O> {
    /// Starts the clock now, wrapping `inner`.
    pub fn new(inner: O) -> Self {
        TimingOracle {
            inner,
            last: Instant::now(),
            latencies: Vec::new(),
        }
    }

    fn lap(&mut self) {
        let now = Instant::now();
        self.latencies.push(now.duration_since(self.last));
        self.last = now;
    }
}

impl<O: Oracle> Oracle for TimingOracle<O> {
    fn resolve_nei(&mut self, ctx: &NeiContext<'_>) -> NeiDecision {
        self.lap();
        self.inner.resolve_nei(ctx)
    }

    fn enforce_fd(&mut self, ctx: &FdContext<'_>) -> bool {
        self.lap();
        self.inner.enforce_fd(ctx)
    }

    fn validate_fd(&mut self, ctx: &FdContext<'_>) -> bool {
        self.lap();
        self.inner.validate_fd(ctx)
    }

    fn conceptualize_hidden(&mut self, ctx: &HiddenContext<'_>) -> bool {
        self.lap();
        self.inner.conceptualize_hidden(ctx)
    }

    fn name_new_relation(&mut self, ctx: &NamingContext<'_>) -> String {
        self.lap();
        self.inner.name_new_relation(ctx)
    }
}

/// One session's contribution to a [`ServiceReport`].
#[derive(Debug)]
pub struct SessionOutcome {
    /// The full pipeline result (log, stats, restructured schema, …).
    pub result: PipelineResult,
    /// Per-presumption computation intervals (see [`TimingOracle`]).
    pub latencies: Vec<Duration>,
    /// Wall time of this session, construction to disassembly.
    pub wall: Duration,
}

/// Everything a service run produced, outcomes in session-index order
/// (index `i` is the session built from `make_oracle(i)` — scheduling
/// never reorders them).
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-session outcomes, in session-index order.
    pub outcomes: Vec<SessionOutcome>,
    /// Wall time of the whole run (spawn to last join).
    pub wall: Duration,
}

impl ServiceReport {
    /// Completed sessions per second of total wall time.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// `(p50, p99)` presumption latency across every session's
    /// questions; `None` when no oracle was ever consulted.
    pub fn presumption_percentiles(&self) -> Option<(Duration, Duration)> {
        let mut all: Vec<Duration> = self
            .outcomes
            .iter()
            .flat_map(|o| o.latencies.iter().copied())
            .collect();
        if all.is_empty() {
            return None;
        }
        all.sort_unstable();
        let at = |p: usize| all[(all.len() - 1) * p / 100];
        Some((at(50), at(99)))
    }

    /// Do all sessions carry byte-identical decision logs? (They must,
    /// when built over one snapshot with equivalent oracles —
    /// concurrency may only change timing, never answers.)
    pub fn logs_identical(&self) -> bool {
        match self.outcomes.split_first() {
            Some((first, rest)) => rest.iter().all(|o| o.result.log == first.result.log),
            None => true,
        }
    }
}

/// The shared engine a service run probes through: one memoizing
/// engine over the backend `options` selects. (Streamed/spilled
/// extensions are a solo-session feature — service mode expects
/// tables loaded into memory.)
pub fn shared_engine(options: &PipelineOptions) -> Arc<StatsEngine> {
    Arc::new(options.backend.engine_sized(options.page_cache))
}

/// Runs `sessions` concurrent pipeline sessions over one snapshot and
/// one shared engine, each with its own oracle from `make_oracle(i)`.
///
/// Every session is the exact solo pipeline
/// ([`crate::pipeline::run_with_q`] semantics): same stages, same
/// degradation behavior, same audit-log order — stage panics are
/// contained *inside* the session by its single catch-unwind site, so
/// one analyst's failing stage never takes down a neighbor. Outcomes
/// come back in session-index order regardless of scheduling. Only
/// two or more sessions spawn threads, one each; a lone session runs
/// on the calling thread.
pub fn run_service<O, F>(
    snapshot: &DbSnapshot,
    engine: &Arc<StatsEngine>,
    q: &[EquiJoin],
    options: &PipelineOptions,
    sessions: usize,
    make_oracle: F,
) -> ServiceReport
where
    O: Oracle,
    F: Fn(usize) -> O + Sync,
{
    let start = Instant::now();
    let session = |i: usize| {
        let t = Instant::now();
        let mut oracle = TimingOracle::new(make_oracle(i));
        let mut session = DbreSession::with_engine(
            snapshot.to_database(),
            &mut oracle,
            options.clone(),
            Arc::clone(engine),
        );
        session.admit_q(q);
        for stage in stages(&session.options) {
            session.run_stage(stage.as_ref());
        }
        let result = session.into_result();
        SessionOutcome {
            result,
            latencies: oracle.latencies,
            wall: t.elapsed(),
        }
    };
    // A lone session runs on the calling thread: a fresh thread per
    // dialogue would cost its start-up, and its allocations could land
    // in a fresh malloc arena.
    let outcomes: Vec<SessionOutcome> = if sessions < 2 {
        (0..sessions).map(session).collect()
    } else {
        std::thread::scope(|scope| {
            let session = &session;
            let handles: Vec<_> = (0..sessions)
                .map(|i| scope.spawn(move || session(i)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(outcome) => outcome,
                    // Only a panic *outside* run_stage's containment can
                    // land here (a bug, not an expected path) — re-raise
                    // rather than invent a fake outcome.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };
    ServiceReport {
        outcomes,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AutoOracle;
    use crate::pipeline::run_with_q;
    use dbre_extract::{extract_programs, ExtractConfig, ProgramSource};
    use dbre_relational::database::Database;
    use dbre_sql::Catalog;

    fn legacy() -> (Database, Vec<EquiJoin>) {
        let mut cat = Catalog::new();
        cat.load_script(
            "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30), amount INT);
             INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob'), (3, 'cid');
             INSERT INTO Orders VALUES (10, 1, 'ann', 5), (11, 1, 'ann', 7), (12, 2, 'bob', 3);",
        )
        .unwrap();
        let db = cat.into_database();
        let programs = vec![ProgramSource::sql(
            "report",
            "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
        )];
        let q = extract_programs(&db.schema, &programs, &ExtractConfig::default()).q();
        (db, q)
    }

    #[test]
    fn concurrent_sessions_match_serial_run_byte_for_byte() {
        let (db, q) = legacy();
        let options = PipelineOptions::default();

        // Serial reference.
        let mut oracle = AutoOracle::default();
        let serial = run_with_q(db.clone(), &q, &mut oracle, &options);
        assert!(serial.is_complete(), "{:?}", serial.stage_errors);

        let snapshot = DbSnapshot::new(db);
        let engine = shared_engine(&options);
        let report = run_service(&snapshot, &engine, &q, &options, 8, |_| {
            AutoOracle::default()
        });
        assert_eq!(report.outcomes.len(), 8);
        assert!(report.logs_identical());
        for outcome in &report.outcomes {
            assert!(
                outcome.result.is_complete(),
                "{:?}",
                outcome.result.stage_errors
            );
            assert_eq!(outcome.result.log, serial.log);
            assert_eq!(outcome.result.rhs.fds, serial.rhs.fds);
            assert_eq!(outcome.result.eer, serial.eer);
        }
        assert!(report.sessions_per_sec() > 0.0);
        // The pipeline consulted the oracle, so latencies exist and
        // percentiles are orderly.
        let (p50, p99) = report.presumption_percentiles().unwrap();
        assert!(p50 <= p99);
    }

    #[test]
    fn shared_engine_serves_later_sessions_from_cache() {
        let (db, q) = legacy();
        let options = PipelineOptions::default();
        let snapshot = DbSnapshot::new(db);
        let engine = shared_engine(&options);

        let first = run_service(&snapshot, &engine, &q, &options, 1, |_| {
            AutoOracle::default()
        });
        let cold_misses = first.outcomes[0].result.stats.counters.cache_misses;
        assert!(cold_misses > 0, "first session populates the cache");

        let second = run_service(&snapshot, &engine, &q, &options, 1, |_| {
            AutoOracle::default()
        });
        let warm = &second.outcomes[0].result.stats.counters;
        assert!(
            warm.cache_misses < cold_misses,
            "second session over the same snapshot reuses entries: \
             {warm:?} vs {cold_misses} cold misses"
        );
        // warm.cache_misses < cold_misses also proves the per-session
        // baseline diff: engine-absolute misses only ever grow, so a
        // session re-reporting engine totals could never shrink.
        assert!(warm.cache_hits > 0, "warm probes hit shared entries");
    }

    /// A lone session runs on the calling thread — its oracle is made
    /// there — while two sessions each get a thread of their own.
    #[test]
    fn a_lone_session_runs_on_the_calling_thread() {
        let (db, q) = legacy();
        let options = PipelineOptions::default();
        let snapshot = DbSnapshot::new(db);
        let engine = shared_engine(&options);
        let caller = std::thread::current().id();
        let threads = std::sync::Mutex::new(Vec::new());
        let make_oracle = |_| {
            threads.lock().unwrap().push(std::thread::current().id());
            AutoOracle::default()
        };
        let lone = run_service(&snapshot, &engine, &q, &options, 1, make_oracle);
        assert!(lone.outcomes[0].result.is_complete());
        assert_eq!(*threads.lock().unwrap(), vec![caller]);

        threads.lock().unwrap().clear();
        let pair = run_service(&snapshot, &engine, &q, &options, 2, make_oracle);
        assert!(pair.logs_identical());
        assert_eq!(pair.outcomes[0].result.log, lone.outcomes[0].result.log);
        let spawned = threads.lock().unwrap();
        assert_eq!(spawned.len(), 2);
        assert!(spawned.iter().all(|&id| id != caller));
        assert_ne!(spawned[0], spawned[1]);
    }

    #[test]
    fn empty_service_is_well_formed() {
        let (db, q) = legacy();
        let options = PipelineOptions::default();
        let snapshot = DbSnapshot::new(db);
        let engine = shared_engine(&options);
        let report = run_service(&snapshot, &engine, &q, &options, 0, |_| {
            AutoOracle::default()
        });
        assert!(report.outcomes.is_empty());
        assert!(report.logs_identical());
        assert!(report.presumption_percentiles().is_none());
    }
}
