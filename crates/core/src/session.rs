//! The pipeline session: one value owning everything a run threads
//! through its stages, plus the [`Stage`] trait the stages implement.
//!
//! Before this seam existed, `run_with_q` hand-threaded a
//! `(Database, StatsEngine, Oracle, audit log, stage_errors)` tuple
//! through five inlined stage calls, each wrapped in its own copy of
//! the catch-unwind/timing/degradation boilerplate. A [`DbreSession`]
//! owns that state once; [`DbreSession::run_stage`] is the *single*
//! place a stage is timed, panic-guarded, and degraded; and the stages
//! themselves shrink to small [`Stage`] implementations that read
//! their inputs from — and write their outputs back into — the
//! session.
//!
//! The counting seam is chosen by [`BackendChoice`]: every `‖·‖`
//! probe of the run goes through a [`StatsEngine`] memoizing the
//! selected [`CountBackend`](dbre_relational::backend::CountBackend)
//! (reference scans, dictionary-encoded kernels, or generated SQL).

use crate::eer::EerSchema;
use crate::ind_discovery::{ind_discovery_with_engine, IndDiscovery};
use crate::lhs_discovery::{lhs_discovery, LhsDiscovery};
use crate::oracle::{DecisionRecord, Oracle, OracleAbort};
use crate::pipeline::{PipelineOptions, PipelineResult, PipelineStats, StageError};
use crate::restruct::{restruct, Restructured};
use crate::rhs_discovery::{rhs_discovery_with_engine, RhsDiscovery};
use crate::translate::translate;
use dbre_relational::backend::{BackendExecStats, EncodedBackend, ReferenceBackend};
use dbre_relational::bufpool::PageCacheStats;
use dbre_relational::counting::EquiJoin;
use dbre_relational::database::Database;
use dbre_relational::pages::PagedBackend;
use dbre_relational::spill::SpillCacheStats;
use dbre_relational::stats::{StatsCounters, StatsEngine};
use dbre_relational::DbreError;
use dbre_sql::SqlBackend;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Which counting backend serves the `‖·‖` probes of a run.
///
/// All four are differentially tested against each other; they differ
/// only in speed, memory footprint and *how* they compute (the SQL
/// backend executes real `SELECT COUNT(DISTINCT …)` statements,
/// demonstrating the paper's §2 remark that the function "can be
/// computed in any SQL-like language"; the paged backend streams
/// dictionary codes from disk pages so the extension need not fit in
/// RAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Value-based reference scans: the executable specification.
    Reference,
    /// Dictionary-encoded integer-code kernels (fastest; default).
    #[default]
    Encoded,
    /// Generated SQL through the `dbre-sql` executor (fidelity path).
    Sql,
    /// Out-of-core paged columnar store: encoded kernels streaming
    /// over spilled code pages through an LRU buffer pool.
    Paged,
}

impl BackendChoice {
    /// Parses a CLI / environment spelling (`reference`, `encoded`,
    /// `sql`, `paged`).
    pub fn parse(s: &str) -> Option<BackendChoice> {
        match s {
            "reference" => Some(BackendChoice::Reference),
            "encoded" => Some(BackendChoice::Encoded),
            "sql" => Some(BackendChoice::Sql),
            "paged" => Some(BackendChoice::Paged),
            _ => None,
        }
    }

    /// Reads the `DBRE_BACKEND` environment variable (used by the CI
    /// matrix to run the whole suite over a non-default backend);
    /// unset or unrecognized values yield the default.
    pub fn from_env() -> BackendChoice {
        std::env::var("DBRE_BACKEND")
            .ok()
            .and_then(|v| BackendChoice::parse(&v))
            .unwrap_or_default()
    }

    /// The canonical spelling, matching [`BackendChoice::parse`].
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Reference => "reference",
            BackendChoice::Encoded => "encoded",
            BackendChoice::Sql => "sql",
            BackendChoice::Paged => "paged",
        }
    }

    /// Builds a fresh memoizing engine over the chosen backend with
    /// default sizing.
    pub fn engine(self) -> StatsEngine {
        self.engine_sized(None)
    }

    /// Like [`BackendChoice::engine`], but with an explicit buffer-pool
    /// capacity in bytes for the paged backend (`None` = its 64 MiB
    /// default). The in-memory backends ignore the capacity.
    pub fn engine_sized(self, page_cache_bytes: Option<usize>) -> StatsEngine {
        match self {
            BackendChoice::Reference => StatsEngine::with_backend(Box::new(ReferenceBackend)),
            BackendChoice::Encoded => StatsEngine::with_backend(Box::new(EncodedBackend::new())),
            BackendChoice::Sql => StatsEngine::with_backend(Box::new(SqlBackend::new())),
            BackendChoice::Paged => {
                let backend = match page_cache_bytes {
                    Some(bytes) => PagedBackend::with_capacity_bytes(bytes),
                    None => PagedBackend::new(),
                };
                StatsEngine::with_backend(Box::new(backend))
            }
        }
    }
}

/// All state one pipeline run threads through its stages.
///
/// Stages read their inputs from the session and write their outputs
/// back into it; the earlier-stage outputs double as the inputs of the
/// later ones (`ind` feeds `lhs` feeds `rhs` …). Every field a stage
/// may touch is public to the crate's stage implementations, and the
/// struct disassembles into the external [`PipelineResult`] via
/// [`DbreSession::into_result`].
pub struct DbreSession<'o> {
    /// The database being reverse engineered; Restruct mutates it in
    /// place (after snapshotting [`DbreSession::db_before`]).
    pub db: Database,
    /// The memoizing counting engine every `‖·‖` probe goes through.
    /// Behind `Arc` so many concurrent sessions can share one engine
    /// (generation tags are globally unique, so entries never alias);
    /// a solo run simply holds the only reference.
    pub engine: Arc<StatsEngine>,
    /// Engine-counter baselines snapshotted at construction;
    /// [`DbreSession::into_result`] reports the *difference*, so
    /// sessions sharing one engine never re-report work that happened
    /// before they started. (Under concurrent interleaving a session's
    /// window still includes its neighbors' probes — per-session
    /// numbers are exact when sessions run the engine exclusively, an
    /// upper bound otherwise; cross-session aggregation should read
    /// the shared engine's counters once instead of summing sessions.)
    counters_base: StatsCounters,
    exec_base: BackendExecStats,
    page_base: PageCacheStats,
    spill_base: SpillCacheStats,
    /// The expert user (§5: "the comprehension process is monitored by
    /// the user").
    pub oracle: &'o mut dyn Oracle,
    /// Run configuration.
    pub options: PipelineOptions,
    /// The validated set `Q` driving IND-Discovery.
    pub q: Vec<EquiJoin>,
    /// Stage 3 output (empty default until `ind-discovery` runs).
    pub ind: IndDiscovery,
    /// Stage 4 output.
    pub lhs: LhsDiscovery,
    /// Stage 5 output.
    pub rhs: RhsDiscovery,
    /// Stage 6 output.
    pub restructured: Restructured,
    /// Stage 7 output.
    pub eer: EerSchema,
    /// Snapshot taken by the restruct stage just before it rewrites
    /// the schema; stage-3/4/5 outputs render against this one.
    pub db_before: Database,
    /// The merged audit log; stages append through
    /// [`DbreSession::record`] in execution order.
    pub log: Vec<DecisionRecord>,
    /// Warnings accumulated across validation and degraded stages.
    pub warnings: Vec<String>,
    /// Stages that failed and were degraded to their default output.
    pub stage_errors: Vec<StageError>,
    /// Per-stage wall time; counters are snapshotted at disassembly.
    pub stats: PipelineStats,
}

impl<'o> DbreSession<'o> {
    /// Builds a session around `db` with the engine selected by
    /// `options.backend`.
    pub fn new(db: Database, oracle: &'o mut dyn Oracle, options: PipelineOptions) -> Self {
        let mut warnings = Vec::new();
        let engine = if options.spilled.is_empty() {
            options.backend.engine_sized(options.page_cache)
        } else {
            // Streamed extensions exist only as spilled pages — no
            // in-memory backend can answer for them, so the paged
            // backend is forced and the adopted columns are installed
            // before any probe runs.
            if options.backend != BackendChoice::Paged {
                warnings.push(format!(
                    "streamed-ingest tables require the paged backend; overriding `{}`",
                    options.backend.name()
                ));
            }
            let backend = match options.page_cache {
                Some(bytes) => PagedBackend::with_capacity_bytes(bytes),
                None => PagedBackend::new(),
            };
            for (rel, table) in &options.spilled {
                backend.adopt_spilled(&db, *rel, table);
            }
            StatsEngine::with_backend(Box::new(backend))
        };
        let mut session = DbreSession::with_engine(db, oracle, options, Arc::new(engine));
        // Spill-cache counters predate the engine (streamed ingest
        // runs while inputs load, before any session exists), and a
        // solo session owns its engine outright — report them
        // cumulatively instead of diffing the ingest away.
        session.spill_base = SpillCacheStats::default();
        session.warnings = warnings;
        session
    }

    /// Builds a session over an *existing* (possibly shared) engine —
    /// the concurrent-service path, where many sessions answer their
    /// `‖·‖` probes from one memoizing engine. The engine must serve
    /// the chosen backend semantics for `db` (streamed extensions
    /// still require a paged backend underneath; [`DbreSession::new`]
    /// handles that wiring for the solo case).
    pub fn with_engine(
        db: Database,
        oracle: &'o mut dyn Oracle,
        options: PipelineOptions,
        engine: Arc<StatsEngine>,
    ) -> Self {
        let stats = PipelineStats {
            backend: engine.backend_name(),
            ..Default::default()
        };
        DbreSession {
            db,
            counters_base: engine.counters(),
            exec_base: engine.exec_stats(),
            page_base: engine.page_stats(),
            spill_base: engine.spill_stats(),
            engine,
            oracle,
            options,
            q: Vec::new(),
            ind: IndDiscovery::default(),
            lhs: LhsDiscovery::default(),
            rhs: RhsDiscovery::default(),
            restructured: Restructured::default(),
            eer: EerSchema::default(),
            db_before: Database::new(),
            log: Vec::new(),
            warnings: Vec::new(),
            stage_errors: Vec::new(),
            stats,
        }
    }

    /// Admits a caller-supplied `Q`, skipping malformed joins
    /// (mismatched side arity, out-of-range ids, empty attribute
    /// lists) with one warning each instead of panicking deep inside
    /// counting.
    pub fn admit_q(&mut self, q: &[EquiJoin]) {
        for join in q {
            match join.validate(&self.db) {
                Ok(()) => self.q.push(join.clone()),
                Err(e) => self.warnings.push(format!("skipping malformed join: {e}")),
            }
        }
    }

    /// Appends one decision to the merged audit log. *Every* record of
    /// a run flows through here, so the log order is exactly the stage
    /// execution order.
    pub fn record(&mut self, record: DecisionRecord) {
        self.log.push(record);
    }

    /// Appends a stage's decision batch, preserving its order.
    pub fn record_all(&mut self, records: &[DecisionRecord]) {
        self.log.extend(records.iter().cloned());
    }

    /// Runs one stage with graceful degradation — the *only* place in
    /// the pipeline where a stage is timed and panic-guarded.
    ///
    /// A typed error *or a panic* inside the stage is demoted to a
    /// warning plus a [`StageError`]; the stage's outputs stay at
    /// their empty defaults (stages assign session fields only on
    /// success) and the remaining stages still run over whatever
    /// survived. An [`OracleAbort`] unwind is recognized and surfaces
    /// as the typed [`DbreError::OracleAbort`].
    pub fn run_stage(&mut self, stage: &dyn Stage) {
        let name = stage.name();
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| stage.run(self)));
        self.stats.stage_timings.push((name, t.elapsed()));
        let error = match outcome {
            Ok(Ok(())) => return,
            Ok(Err(e)) => e,
            Err(payload) => match payload.downcast::<OracleAbort>() {
                Ok(abort) => DbreError::OracleAbort(abort.0),
                Err(payload) => DbreError::Panic {
                    stage: name.to_string(),
                    message: panic_message(payload.as_ref()),
                },
            },
        };
        self.warnings
            .push(format!("stage `{name}` degraded: {error}"));
        self.stage_errors.push(StageError { stage: name, error });
    }

    /// Disassembles the session into the external result. The reported
    /// counters are the *growth since construction* (saturating, so a
    /// mid-run [`StatsEngine::reset_counters`] elsewhere degrades to
    /// zero rather than wrapping), which keeps them meaningful when
    /// the engine is shared — see the field docs on `counters_base`.
    pub fn into_result(mut self) -> PipelineResult {
        let c = self.engine.counters();
        self.stats.counters = StatsCounters {
            cache_hits: c.cache_hits.saturating_sub(self.counters_base.cache_hits),
            cache_misses: c
                .cache_misses
                .saturating_sub(self.counters_base.cache_misses),
            rows_scanned: c
                .rows_scanned
                .saturating_sub(self.counters_base.rows_scanned),
        };
        let e = self.engine.exec_stats();
        self.stats.backend_exec = BackendExecStats {
            fallback_failures: e
                .fallback_failures
                .saturating_sub(self.exec_base.fallback_failures),
            batch_ops: e.batch_ops.saturating_sub(self.exec_base.batch_ops),
            tuple_fallback_ops: e
                .tuple_fallback_ops
                .saturating_sub(self.exec_base.tuple_fallback_ops),
        };
        let p = self.engine.page_stats();
        self.stats.page_cache = PageCacheStats {
            hits: p.hits.saturating_sub(self.page_base.hits),
            misses: p.misses.saturating_sub(self.page_base.misses),
            evictions: p.evictions.saturating_sub(self.page_base.evictions),
        };
        let s = self.engine.spill_stats();
        self.stats.spill_cache = SpillCacheStats {
            hits: s.hits.saturating_sub(self.spill_base.hits),
            misses: s.misses.saturating_sub(self.spill_base.misses),
        };
        PipelineResult {
            q: self.q,
            ind: self.ind,
            lhs: self.lhs,
            rhs: self.rhs,
            restructured: self.restructured,
            eer: self.eer,
            db: self.db,
            db_before: self.db_before,
            log: self.log,
            warnings: self.warnings,
            provenance: Vec::new(),
            stats: self.stats,
            stage_errors: self.stage_errors,
        }
    }
}

impl std::fmt::Debug for DbreSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbreSession")
            .field("backend", &self.engine.backend_name())
            .field("q", &self.q.len())
            .field("log", &self.log.len())
            .field("warnings", &self.warnings.len())
            .field("stage_errors", &self.stage_errors.len())
            .finish_non_exhaustive()
    }
}

/// One pipeline stage. Implementations read their inputs from the
/// session and write their outputs back; [`DbreSession::run_stage`]
/// supplies timing, panic containment, and degradation uniformly.
pub trait Stage {
    /// The stage name as recorded in
    /// [`PipelineStats::stage_timings`] and [`StageError::stage`].
    fn name(&self) -> &'static str;
    /// Runs the stage against the session. On `Err` (or panic) the
    /// session must be left with this stage's outputs untouched.
    fn run(&self, session: &mut DbreSession<'_>) -> Result<(), DbreError>;
}

/// The stage sequence `options` selects (key inference is opt-in; the
/// paper's five stages always run).
pub fn stages(options: &PipelineOptions) -> Vec<Box<dyn Stage>> {
    let mut v: Vec<Box<dyn Stage>> = Vec::new();
    if options.infer_missing_keys {
        v.push(Box::new(KeyInferenceStage));
    }
    v.push(Box::new(IndDiscoveryStage));
    v.push(Box::new(LhsDiscoveryStage));
    v.push(Box::new(RhsDiscoveryStage));
    v.push(Box::new(RestructStage));
    v.push(Box::new(TranslateStage));
    v
}

/// Pre-pipeline: infer candidate keys for relations whose dictionary
/// declares none (pre-`UNIQUE` DBMSs — an extension beyond the paper's
/// §4 assumption that `K` is always available).
struct KeyInferenceStage;

impl Stage for KeyInferenceStage {
    fn name(&self) -> &'static str {
        "key-inference"
    }

    fn run(&self, s: &mut DbreSession<'_>) -> Result<(), DbreError> {
        let (inferred, sketch) =
            dbre_mine::infer_missing_keys_with_engine(&mut s.db, Some(3), &*s.engine);
        s.stats.sketch.merge(&sketch);
        for (rel, key) in inferred {
            let relation = s.db.schema.relation(rel);
            let record = DecisionRecord::new(
                "Key inference",
                relation.name.clone(),
                format!("inferred key {{{}}}", relation.render_set(&key)),
            );
            s.record(record);
        }
        Ok(())
    }
}

/// §6.1 IND-Discovery over the admitted `Q`.
struct IndDiscoveryStage;

impl Stage for IndDiscoveryStage {
    fn name(&self) -> &'static str {
        "ind-discovery"
    }

    fn run(&self, s: &mut DbreSession<'_>) -> Result<(), DbreError> {
        let out = ind_discovery_with_engine(&mut s.db, &s.q, &mut *s.oracle, &*s.engine)?;
        s.record_all(&out.log);
        s.ind = out;
        Ok(())
    }
}

/// §6.2.1 LHS-Discovery from the IND set.
struct LhsDiscoveryStage;

impl Stage for LhsDiscoveryStage {
    fn name(&self) -> &'static str {
        "lhs-discovery"
    }

    fn run(&self, s: &mut DbreSession<'_>) -> Result<(), DbreError> {
        s.lhs = lhs_discovery(&s.db, &s.ind.inds, &s.ind.new_relations);
        Ok(())
    }
}

/// §6.2.2 RHS-Discovery by targeted extension tests.
struct RhsDiscoveryStage;

impl Stage for RhsDiscoveryStage {
    fn name(&self) -> &'static str {
        "rhs-discovery"
    }

    fn run(&self, s: &mut DbreSession<'_>) -> Result<(), DbreError> {
        let out =
            rhs_discovery_with_engine(&s.db, &s.lhs, &mut *s.oracle, &s.options.rhs, &*s.engine);
        s.record_all(&out.log);
        s.stats.sketch.merge(&out.sketch);
        s.rhs = out;
        Ok(())
    }
}

/// §7 Restruct: 1NF → 3NF rewriting. Snapshots
/// [`DbreSession::db_before`] first, so stage-3/4/5 outputs keep a
/// schema to render against even if restructuring degrades.
struct RestructStage;

impl Stage for RestructStage {
    fn name(&self) -> &'static str {
        "restruct"
    }

    fn run(&self, s: &mut DbreSession<'_>) -> Result<(), DbreError> {
        hydrate_streamed(s)?;
        s.db_before = s.db.clone();
        let out = restruct(
            &mut s.db,
            &s.rhs.fds,
            &s.rhs.hidden,
            &s.ind.inds,
            &mut *s.oracle,
            &*s.engine,
        )?;
        s.record_all(&out.log);
        s.restructured = out;
        Ok(())
    }
}

/// Restruct rewrites extensions through raw value columns
/// (`drop_columns`, `distinct_subtable`), so streamed extensions must
/// come back to memory first. The discovery stages before this point
/// ran entirely over the spilled pages; only the final rewrite pays
/// for materialization, and it decodes from the already-encoded pages
/// (dictionary codes → values) rather than re-parsing any source.
/// Hydration failure is a typed stage error — never a silent
/// empty-column rewrite.
fn hydrate_streamed(s: &mut DbreSession<'_>) -> Result<(), DbreError> {
    use dbre_relational::attr::AttrId;
    use dbre_relational::backend::CountBackend;
    use dbre_relational::pages::PageError;
    use dbre_relational::value::Value;

    let rels: Vec<_> = s.db.schema.iter().map(|(rel, _)| rel).collect();
    for rel in rels {
        if s.db.table(rel).is_materialized() {
            continue;
        }
        let arity = s.db.schema.relation(rel).arity();
        for i in 0..arity {
            let attr = AttrId(i as u16);
            let dict = s.engine.column_dict(&s.db, rel, attr).ok_or_else(|| {
                DbreError::Page(PageError::Io(format!(
                    "cannot hydrate streamed column `{}` of `{}` for restructuring",
                    s.db.schema.relation(rel).attr_name(attr),
                    s.db.schema.relation(rel).name,
                )))
            })?;
            let values: Vec<Value> = dict
                .codes()
                .iter()
                .map(|&c| dict.value_of(c).cloned().unwrap_or(Value::Null))
                .collect();
            s.db.hydrate_column(rel, attr, values);
        }
    }
    Ok(())
}

/// §7 Translate: the restructured schema as an EER diagram.
struct TranslateStage;

impl Stage for TranslateStage {
    fn name(&self) -> &'static str {
        "translate"
    }

    fn run(&self, s: &mut DbreSession<'_>) -> Result<(), DbreError> {
        s.eer = translate(&s.db, &s.restructured.ric)?;
        Ok(())
    }
}

// Compile-time proof that a whole session can move to a service
// worker thread: everything it owns (database, shared engine, oracle
// borrow, stage outputs) is `Send`. `Sync` is deliberately not
// asserted — a session is single-owner mutable state; only the engine
// underneath it is shared.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DbreSession<'static>>();
};

/// Renders a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AutoOracle;

    #[test]
    fn backend_choice_parses_canonical_names() {
        for choice in [
            BackendChoice::Reference,
            BackendChoice::Encoded,
            BackendChoice::Sql,
            BackendChoice::Paged,
        ] {
            assert_eq!(BackendChoice::parse(choice.name()), Some(choice));
            assert_eq!(choice.engine().backend_name(), choice.name());
        }
        assert_eq!(BackendChoice::parse("postgres"), None);
        assert_eq!(BackendChoice::default(), BackendChoice::Encoded);
    }

    #[test]
    fn stage_list_matches_options() {
        let names: Vec<&str> = stages(&PipelineOptions::default())
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "ind-discovery",
                "lhs-discovery",
                "rhs-discovery",
                "restruct",
                "translate"
            ]
        );
        let with_keys = PipelineOptions {
            infer_missing_keys: true,
            ..Default::default()
        };
        assert_eq!(stages(&with_keys)[0].name(), "key-inference");
    }

    #[test]
    fn admit_q_filters_and_warns() {
        use dbre_relational::attr::AttrId;
        use dbre_relational::deps::IndSide;
        use dbre_relational::schema::{RelId, Relation};
        use dbre_relational::value::Domain;

        let mut db = Database::new();
        let r = db
            .add_relation(Relation::of("R", &[("a", Domain::Int)]))
            .unwrap();
        let mut oracle = AutoOracle::default();
        let mut session = DbreSession::new(db, &mut oracle, PipelineOptions::default());
        let good = EquiJoin::try_new(IndSide::single(r, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let bad = EquiJoin {
            left: IndSide::single(RelId(9), AttrId(0)),
            right: IndSide::single(r, AttrId(0)),
        };
        session.admit_q(&[bad, good.clone()]);
        assert_eq!(session.q, vec![good]);
        assert_eq!(session.warnings.len(), 1);
    }

    #[test]
    fn run_stage_contains_panics_and_keeps_defaults() {
        struct Bomb;
        impl Stage for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn run(&self, _: &mut DbreSession<'_>) -> Result<(), DbreError> {
                panic!("stage exploded")
            }
        }
        let mut oracle = AutoOracle::default();
        let mut session =
            DbreSession::new(Database::new(), &mut oracle, PipelineOptions::default());
        session.run_stage(&Bomb);
        assert_eq!(session.stage_errors.len(), 1);
        assert_eq!(session.stage_errors[0].stage, "bomb");
        assert!(matches!(
            session.stage_errors[0].error,
            DbreError::Panic { .. }
        ));
        assert_eq!(session.warnings.len(), 1);
        assert_eq!(session.stats.stage_timings.len(), 1, "failures are timed");
        assert!(session.ind.inds.is_empty(), "outputs stay at defaults");
    }
}
