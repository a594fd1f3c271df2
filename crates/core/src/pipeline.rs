//! End-to-end reverse-engineering pipeline.
//!
//! Chains the paper's method over a legacy database:
//!
//! 1. derive `K` and `N` from the data dictionary (already inside the
//!    [`Database`] when loaded through `dbre_sql::Catalog`);
//! 2. extract `Q` from application programs (`dbre_extract`) — or take
//!    a prepared `Q`;
//! 3. IND-Discovery (§6.1);
//! 4. LHS-Discovery (§6.2.1);
//! 5. RHS-Discovery (§6.2.2);
//! 6. Restruct (§7);
//! 7. Translate (§7) into an EER schema.
//!
//! Every expert interaction is recorded in one merged audit log.

use crate::eer::EerSchema;
use crate::ind_discovery::IndDiscovery;
use crate::lhs_discovery::LhsDiscovery;
use crate::oracle::{DecisionRecord, Oracle};
use crate::restruct::Restructured;
use crate::rhs_discovery::{RhsDiscovery, RhsOptions};
use crate::session::{stages, BackendChoice, DbreSession};
use dbre_extract::{extract_programs, ExtractConfig, ProgramSource};
use dbre_relational::counting::EquiJoin;
use dbre_relational::database::Database;
use dbre_relational::sketch::SketchPruneStats;
use dbre_relational::stats::StatsCounters;
use dbre_relational::BackendExecStats;
use dbre_relational::DbreError;
use dbre_relational::PageCacheStats;
use dbre_relational::RelId;
use dbre_relational::SpillCacheStats;
use dbre_relational::SpilledTable;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Equi-join extraction options.
    pub extract: ExtractConfig,
    /// RHS-Discovery pruning options.
    pub rhs: RhsOptions,
    /// Infer candidate keys from the extension for relations whose
    /// dictionary declares none (pre-`UNIQUE` DBMSs — an extension
    /// beyond the paper's §4 assumption that `K` is always available).
    /// The inferred key's width is bounded to 3 columns.
    pub infer_missing_keys: bool,
    /// Which counting backend serves the `‖·‖` probes.
    pub backend: BackendChoice,
    /// Buffer-pool capacity in bytes for the paged backend
    /// (`--page-cache` on the CLI; `None` = the 64 MiB default).
    /// Ignored by the in-memory backends.
    pub page_cache: Option<usize>,
    /// Streamed-ingest tables (`import_csv_spilled`), whose
    /// [`Database`] extensions hold their codes on these pages.
    /// Non-empty `spilled` forces the paged backend regardless of
    /// `backend`, whose pool `page_cache` sizes; the backend counts
    /// their spill-cache hits and misses.
    pub spilled: Vec<(RelId, Arc<SpilledTable>)>,
    /// Read by nothing: the exact-count shortcuts are always on. Kept
    /// only because the end-to-end benchmark sets it; it goes together
    /// with [`SketchMode`] once that benchmark stops doing so.
    pub sketch: SketchMode,
}

/// The one value of [`PipelineOptions::sketch`]. Kept only so the
/// end-to-end benchmark's `sketch: SketchMode::On` still compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SketchMode {
    /// The exact-count shortcuts run (they always do).
    #[default]
    On,
}

impl Default for PipelineOptions {
    /// Defaults honor the `DBRE_BACKEND` environment variable (see
    /// [`BackendChoice::from_env`]) so an entire test suite can be
    /// re-run over a different backend without code changes.
    fn default() -> Self {
        PipelineOptions {
            extract: ExtractConfig::default(),
            rhs: RhsOptions::default(),
            infer_missing_keys: false,
            backend: BackendChoice::from_env(),
            page_cache: None,
            spilled: Vec::new(),
            sketch: SketchMode::On,
        }
    }
}

/// Instrumentation for one pipeline run: wall-clock per stage plus the
/// counting-engine counters.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// `(stage, wall time)` in execution order.
    pub stage_timings: Vec<(&'static str, Duration)>,
    /// Counting-engine observability: cache hits/misses and rows
    /// scanned across all `‖·‖` / FD / partition queries of the run.
    pub counters: StatsCounters,
    /// Name of the counting backend that served the run
    /// ([`BackendChoice::name`]).
    pub backend: &'static str,
    /// Execution-strategy counters from the backend: statements
    /// lowered onto the counting kernels vs run on the tuple
    /// interpreter, and — crucially — how many probes failed outright
    /// and were silently served by the reference fallback. Nonzero failures surface as a CLI
    /// warning; all-zero for single-strategy backends.
    pub backend_exec: BackendExecStats,
    /// Buffer-pool counters from the paged backend: page hits, misses
    /// and LRU evictions across the run. All-zero for the in-memory
    /// backends.
    pub page_cache: PageCacheStats,
    /// Persistent spill-cache counters from streamed ingest: tables
    /// adopted from a warm `--spill-dir` entry (encode skipped) vs
    /// tables encoded from source. All-zero when nothing streamed.
    pub spill_cache: SpillCacheStats,
    /// Exact-count shortcut counters summed over key inference and
    /// RHS-Discovery: candidates examined, candidates settled without
    /// a probe, candidates probed. All-zero on backends that serve no
    /// counts (reference, SQL).
    pub sketch: SketchPruneStats,
}

impl PipelineStats {
    /// Total wall time across the recorded stages.
    pub fn total(&self) -> Duration {
        self.stage_timings.iter().map(|(_, d)| *d).sum()
    }
}

/// One failed (degraded) stage: which stage, and the typed error it
/// failed with. The stage's output was replaced by its empty default
/// and the run continued.
#[derive(Debug, Clone)]
pub struct StageError {
    /// Stage name, matching [`PipelineStats::stage_timings`].
    pub stage: &'static str,
    /// The typed failure.
    pub error: DbreError,
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage `{}` failed: {}", self.stage, self.error)
    }
}

/// Everything the pipeline produced, stage by stage.
#[derive(Debug)]
pub struct PipelineResult {
    /// The set `Q` that drove IND-Discovery.
    pub q: Vec<EquiJoin>,
    /// Stage 3 output.
    pub ind: IndDiscovery,
    /// Stage 4 output.
    pub lhs: LhsDiscovery,
    /// Stage 5 output.
    pub rhs: RhsDiscovery,
    /// Stage 6 output.
    pub restructured: Restructured,
    /// Stage 7 output.
    pub eer: EerSchema,
    /// The database after restructuring (3NF schema + extension).
    pub db: Database,
    /// Snapshot taken *before* Restruct (after IND-Discovery added the
    /// `S` relations): the schema the stage-3/4/5 outputs reference.
    /// Render `ind`, `lhs` and `rhs` against this one — Restruct
    /// rewrites attribute ids.
    pub db_before: Database,
    /// Merged audit log across stages.
    pub log: Vec<DecisionRecord>,
    /// Warnings: malformed `Q` elements that were skipped, plus
    /// extraction warnings (stage 2) when running from programs.
    pub warnings: Vec<String>,
    /// Instrumentation: per-stage wall time and counting-engine
    /// counters.
    pub stats: PipelineStats,
    /// Provenance of each element of `Q` (program name, statement
    /// index), parallel-keyed by canonical join; empty when `Q` was
    /// supplied directly. This is the paper's promise that the expert
    /// can trace every presumption back to the code exhibiting it.
    pub provenance: Vec<(EquiJoin, Vec<dbre_extract::Provenance>)>,
    /// Stages that failed and were degraded: each failed stage yields
    /// its empty default output, a warning, and an entry here. Empty
    /// on a clean run — see [`PipelineResult::is_complete`].
    pub stage_errors: Vec<StageError>,
}

impl PipelineResult {
    /// Did every stage complete without degradation?
    pub fn is_complete(&self) -> bool {
        self.stage_errors.is_empty()
    }

    /// The programs that exhibited `join` (empty when unknown).
    pub fn evidence_for(&self, join: &EquiJoin) -> Vec<&str> {
        let canonical = join.canonical();
        self.provenance
            .iter()
            .find(|(j, _)| *j == canonical)
            .map(|(_, ps)| ps.iter().map(|p| p.program.as_str()).collect())
            .unwrap_or_default()
    }
}

/// Runs the pipeline from application programs: extracts `Q`, then
/// calls [`run_with_q`].
///
/// `db` is consumed: the returned [`PipelineResult::db`] is the
/// restructured database.
pub fn run_with_programs(
    db: Database,
    programs: &[ProgramSource],
    oracle: &mut dyn Oracle,
    options: &PipelineOptions,
) -> PipelineResult {
    let extraction = extract_programs(&db.schema, programs, &options.extract);
    let mut result = run_with_q(db, &extraction.q(), oracle, options);
    // Extend — run_with_q may already have recorded Q-validation
    // warnings of its own.
    result.warnings.extend(extraction.warnings);
    result.provenance = extraction
        .joins
        .into_iter()
        .map(|j| (j.join, j.provenance))
        .collect();
    result
}

/// Runs the pipeline from a prepared set `Q`.
///
/// Malformed elements of `Q` — mismatched side arity, out-of-bounds
/// relation or attribute ids, empty attribute lists — are skipped with
/// a warning in [`PipelineResult::warnings`] instead of panicking
/// deep inside counting.
///
/// The run itself is infallible: a stage that returns a typed error
/// or panics (including an expert aborting the session, modeled as an
/// [`OracleAbort`](crate::oracle::OracleAbort) unwind) is *degraded* —
/// its output is left at the empty default, the failure is recorded in
/// [`PipelineResult::stage_errors`] and mirrored as a warning, and
/// the remaining stages run over whatever survived
/// ([`DbreSession::run_stage`] is the single containment site). The
/// audit log and the pre-restruct snapshot stay coherent with the
/// stages that did complete.
pub fn run_with_q(
    db: Database,
    q: &[EquiJoin],
    oracle: &mut dyn Oracle,
    options: &PipelineOptions,
) -> PipelineResult {
    let mut session = DbreSession::new(db, oracle, options.clone());
    session.admit_q(q);
    for stage in stages(&session.options) {
        session.run_stage(stage.as_ref());
    }
    session.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AutoOracle;
    use dbre_relational::normal_forms::{analyze, NormalForm};
    use dbre_sql::Catalog;

    /// A miniature legacy system: customers embedded in orders.
    fn legacy() -> (Database, Vec<ProgramSource>) {
        let mut cat = Catalog::new();
        cat.load_script(
            "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30), amount INT);
             INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob'), (3, 'cid');
             INSERT INTO Orders VALUES (10, 1, 'ann', 5), (11, 1, 'ann', 7), (12, 2, 'bob', 3);",
        )
        .unwrap();
        let programs = vec![ProgramSource::sql(
            "report",
            "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
        )];
        (cat.into_database(), programs)
    }

    #[test]
    fn end_to_end_produces_3nf_and_eer() {
        let (db, programs) = legacy();
        let mut oracle = AutoOracle::default();
        let result = run_with_programs(db, &programs, &mut oracle, &PipelineOptions::default());
        // Q extracted.
        assert_eq!(result.q.len(), 1);
        // Orders[cust] << Customer[cid] elicited.
        assert_eq!(result.ind.inds.len(), 1);
        // Orders.cust is a candidate LHS; cust -> cname discovered.
        // (Stage outputs render against the pre-restruct snapshot.)
        assert_eq!(result.rhs.fds.len(), 1);
        assert_eq!(
            result.rhs.fds[0].render(&result.db_before.schema),
            "Orders: cust -> cname"
        );
        // Restructured: Orders lost cname.
        let orders = result.db.rel("Orders").unwrap();
        assert_eq!(result.db.schema.relation(orders).arity(), 3);
        // Every relation of the result is in 3NF w.r.t. the re-homed FDs.
        for (rel, relation) in result.db.schema.iter() {
            let fds: Vec<_> = result
                .restructured
                .fds
                .iter()
                .filter(|f| f.rel == rel)
                .cloned()
                .collect();
            let report = analyze(rel, &relation.all_attrs(), &fds);
            assert!(
                report.form >= NormalForm::Third,
                "{} not 3NF",
                relation.name
            );
        }
        // EER produced with a binary relationship Orders–<new rel>.
        assert!(!result.eer.entities.is_empty());
        assert!(!result.restructured.ric.is_empty());
        // All RIC inclusions hold in the restructured extension.
        for ind in &result.restructured.ric {
            assert!(result.db.ind_holds(ind));
        }
    }

    #[test]
    fn pipeline_with_explicit_q_matches_programs_path() {
        let (db, programs) = legacy();
        let extraction =
            dbre_extract::extract_programs(&db.schema, &programs, &ExtractConfig::default());
        let mut o1 = AutoOracle::default();
        let r1 = run_with_q(db, &extraction.q(), &mut o1, &PipelineOptions::default());

        let (db2, programs2) = legacy();
        let mut o2 = AutoOracle::default();
        let r2 = run_with_programs(db2, &programs2, &mut o2, &PipelineOptions::default());
        assert_eq!(r1.ind.inds, r2.ind.inds);
        assert_eq!(r1.rhs.fds, r2.rhs.fds);
        assert_eq!(r1.eer, r2.eer);
    }

    #[test]
    fn provenance_traces_joins_to_programs() {
        let (db, programs) = legacy();
        let mut oracle = AutoOracle::default();
        let result = run_with_programs(db, &programs, &mut oracle, &PipelineOptions::default());
        assert_eq!(result.provenance.len(), 1);
        let evidence = result.evidence_for(&result.q[0]);
        assert_eq!(evidence, vec!["report"]);
        // Unknown joins yield no evidence (and no panic).
        let flipped =
            EquiJoin::try_new(result.q[0].right.clone(), result.q[0].left.clone()).unwrap();
        assert_eq!(result.evidence_for(&flipped), vec!["report"]);
    }

    #[test]
    fn key_inference_enables_undeclared_dictionaries() {
        // Same legacy system, but the ancient DBMS never supported
        // UNIQUE: without K the RHS pruning degrades and RIC detection
        // (key-based right-hand sides) finds nothing. Inference
        // restores both.
        let mut cat = Catalog::new();
        cat.load_script(
            "CREATE TABLE Customer (cid INT, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT, cust INT, cname VARCHAR(30));
             INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob'), (3, 'cid');
             INSERT INTO Orders VALUES (10, 1, 'ann'), (11, 1, 'ann'), (12, 2, 'bob');",
        )
        .unwrap();
        let db = cat.into_database();
        assert!(db.constraints.keys.is_empty());
        let programs = vec![ProgramSource::sql(
            "report",
            "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
        )];

        let mut oracle = AutoOracle::default();
        let opts = PipelineOptions {
            infer_missing_keys: true,
            ..Default::default()
        };
        let result = run_with_programs(db, &programs, &mut oracle, &opts);
        // Keys inferred for both relations (cid, oid are unique).
        assert!(
            result
                .log
                .iter()
                .filter(|r| r.step == "Key inference")
                .count()
                >= 2
        );
        // The FK became a referential integrity constraint again.
        assert!(!result.restructured.ric.is_empty());
        assert_eq!(result.rhs.fds.len(), 1);
    }

    #[test]
    fn malformed_q_skipped_with_warnings() {
        use dbre_relational::attr::AttrId;
        use dbre_relational::deps::IndSide;
        use dbre_relational::schema::RelId;

        let (db, _) = legacy();
        let customer = db.rel("Customer").unwrap();
        let orders = db.rel("Orders").unwrap();
        // Struct literals bypass the EquiJoin::try_new guard — exactly
        // what an external caller assembling Q by hand can do.
        let bad_arity = EquiJoin {
            left: IndSide::new(orders, vec![AttrId(1), AttrId(2)]),
            right: IndSide::single(customer, AttrId(0)),
        };
        let bad_attr = EquiJoin {
            left: IndSide::single(orders, AttrId(9)),
            right: IndSide::single(customer, AttrId(0)),
        };
        let bad_rel = EquiJoin {
            left: IndSide::single(RelId(99), AttrId(0)),
            right: IndSide::single(customer, AttrId(0)),
        };
        let empty_attrs = EquiJoin {
            left: IndSide::new(orders, vec![]),
            right: IndSide::new(customer, vec![]),
        };
        let good = EquiJoin::try_new(
            IndSide::single(orders, AttrId(1)),
            IndSide::single(customer, AttrId(0)),
        )
        .unwrap();
        let mut oracle = AutoOracle::default();
        let result = run_with_q(
            db,
            &[bad_arity, bad_attr, bad_rel, empty_attrs, good],
            &mut oracle,
            &PipelineOptions::default(),
        );
        assert_eq!(result.q.len(), 1, "only the well-formed join survives");
        assert_eq!(result.warnings.len(), 4, "{:?}", result.warnings);
        assert!(result
            .warnings
            .iter()
            .all(|w| w.contains("skipping malformed join")));
        assert_eq!(result.ind.inds.len(), 1);
    }

    #[test]
    fn stats_record_stages_and_counters() {
        let (db, programs) = legacy();
        let mut oracle = AutoOracle::default();
        let result = run_with_programs(db, &programs, &mut oracle, &PipelineOptions::default());
        let names: Vec<&str> = result.stats.stage_timings.iter().map(|(n, _)| *n).collect();
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
        assert!(result.stats.counters.cache_misses > 0, "engine was used");
        assert!(
            result.stats.counters.cache_hits > 0,
            "RHS-Discovery re-reads the cached LHS groups: {:?}",
            result.stats.counters
        );
        assert!(result.stats.counters.rows_scanned > 0);
        assert!(result.stats.total() >= result.stats.stage_timings[0].1);
        assert_eq!(
            result.stats.backend,
            PipelineOptions::default().backend.name(),
            "the run reports the backend that served it"
        );
    }

    #[test]
    fn log_order_matches_stage_execution_order() {
        // All DecisionRecords flow through DbreSession::record, so the
        // merged log must be grouped by stage, in execution order:
        // key inference, then IND-Discovery, then RHS-Discovery, then
        // Restruct (LHS-Discovery and Translate never record).
        let mut cat = Catalog::new();
        cat.load_script(
            "CREATE TABLE Customer (cid INT, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT, cust INT, cname VARCHAR(30));
             INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob'), (3, 'cid');
             INSERT INTO Orders VALUES (10, 1, 'ann'), (11, 1, 'ann'), (12, 2, 'bob');",
        )
        .unwrap();
        let db = cat.into_database();
        let programs = vec![ProgramSource::sql(
            "report",
            "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
        )];
        let mut oracle = AutoOracle::default();
        let opts = PipelineOptions {
            infer_missing_keys: true,
            ..Default::default()
        };
        let result = run_with_programs(db, &programs, &mut oracle, &opts);
        assert!(result.is_complete(), "{:?}", result.stage_errors);

        let rank = |step: &str| -> usize {
            if step == "Key inference" {
                0
            } else if step.starts_with("IND-Discovery") {
                1
            } else if step.starts_with("RHS-Discovery") {
                2
            } else if step.starts_with("Restruct") {
                3
            } else {
                panic!("unexpected audit step {step:?}")
            }
        };
        let ranks: Vec<usize> = result.log.iter().map(|r| rank(&r.step)).collect();
        assert!(
            ranks.windows(2).all(|w| w[0] <= w[1]),
            "log interleaves stages: {:?}",
            result
                .log
                .iter()
                .map(|r| r.step.as_str())
                .collect::<Vec<_>>()
        );
        let distinct: std::collections::BTreeSet<usize> = ranks.iter().copied().collect();
        assert!(
            distinct.len() >= 3,
            "expected records from at least three stages, got {distinct:?}"
        );
    }

    #[test]
    fn streamed_pipeline_matches_materialized() {
        use dbre_relational::attr::AttrId;
        use dbre_relational::bufpool::BufferPool;
        use dbre_relational::csv::{export_csv, import_csv_spilled};
        use dbre_relational::spill::validate_spilled;

        // Materialized baseline over the paged backend.
        let (db, programs) = legacy();
        let extraction =
            dbre_extract::extract_programs(&db.schema, &programs, &ExtractConfig::default());
        let q = extraction.q();
        let paged_opts = PipelineOptions {
            backend: BackendChoice::Paged,
            ..Default::default()
        };
        let mut o1 = AutoOracle::default();
        let baseline = run_with_q(db, &q, &mut o1, &paged_opts);
        assert!(baseline.is_complete(), "{:?}", baseline.stage_errors);

        // Same extension, streamed: export each table to CSV, rebuild
        // the schema empty, ingest via the spilled path.
        let (src, _) = legacy();
        let mut streamed_db = Database::new();
        for (_, relation) in src.schema.iter() {
            streamed_db.add_relation(relation.clone()).unwrap();
        }
        streamed_db.constraints = src.constraints.clone();
        let tmp = std::env::temp_dir();
        let mut spilled = Vec::new();
        let pool = BufferPool::default();
        for (rel, relation) in src.schema.iter() {
            let csv = export_csv(&src, rel);
            let path = tmp.join(format!(
                "dbre-streamed-e2e-{}-{}.csv",
                std::process::id(),
                relation.name
            ));
            std::fs::write(&path, csv).unwrap();
            let srel = streamed_db.rel(&relation.name).unwrap();
            let table = import_csv_spilled(&mut streamed_db, srel, &path, None).unwrap();
            assert!(streamed_db.table(srel).column(AttrId(0)).pages().is_some());
            validate_spilled(&streamed_db, srel, &table, &pool).unwrap();
            spilled.push((srel, Arc::new(table)));
            let _ = std::fs::remove_file(path);
        }
        let opts = PipelineOptions {
            backend: BackendChoice::Paged,
            spilled: spilled.clone(),
            ..Default::default()
        };
        let mut o2 = AutoOracle::default();
        let result = run_with_q(streamed_db, &q, &mut o2, &opts);
        assert!(result.is_complete(), "{:?}", result.stage_errors);
        // Identical discovery and restructuring output.
        assert_eq!(baseline.ind.inds, result.ind.inds);
        assert_eq!(baseline.rhs.fds, result.rhs.fds);
        assert_eq!(baseline.eer, result.eer);
        // Restruct decoded nothing: the relations it trimmed keep their
        // paged columns, and every table reads back the baseline's.
        let trimmed = result.db.rel("Orders").unwrap();
        assert!(result.db.table(trimmed).column(AttrId(0)).pages().is_some());
        for (rel, relation) in result.db.schema.iter() {
            let twin = baseline.db.rel(&relation.name).unwrap();
            assert_eq!(
                result.db.table(rel),
                baseline.db.table(twin),
                "{}",
                relation.name
            );
        }
        assert_eq!(
            result.db.table(result.db.rel("Orders").unwrap()),
            baseline.db.table(baseline.db.rel("Orders").unwrap()),
        );
        // No silent reference fallbacks on the streamed run.
        assert_eq!(result.stats.backend_exec.fallback_failures, 0);
    }

    #[test]
    fn spilled_with_wrong_backend_is_overridden_with_a_warning() {
        use dbre_relational::csv::import_csv_spilled;

        let (src, _) = legacy();
        let mut db = Database::new();
        for (_, relation) in src.schema.iter() {
            db.add_relation(relation.clone()).unwrap();
        }
        let rel = db.rel("Customer").unwrap();
        let path =
            std::env::temp_dir().join(format!("dbre-streamed-override-{}.csv", std::process::id()));
        std::fs::write(
            &path,
            dbre_relational::csv::export_csv(&src, src.rel("Customer").unwrap()),
        )
        .unwrap();
        let table = import_csv_spilled(&mut db, rel, &path, None).unwrap();
        let _ = std::fs::remove_file(path);

        let opts = PipelineOptions {
            backend: BackendChoice::Encoded,
            spilled: vec![(rel, Arc::new(table))],
            ..Default::default()
        };
        let mut oracle = AutoOracle::default();
        let result = run_with_q(db, &[], &mut oracle, &opts);
        assert_eq!(result.stats.backend, "paged", "paged backend forced");
        assert!(
            result
                .warnings
                .iter()
                .any(|w| w.contains("require the paged backend")),
            "{:?}",
            result.warnings
        );
        assert!(result.is_complete(), "{:?}", result.stage_errors);
    }

    #[test]
    fn log_merges_all_stages() {
        let (db, programs) = legacy();
        let mut oracle = AutoOracle::default();
        let result = run_with_programs(db, &programs, &mut oracle, &PipelineOptions::default());
        // At least the IND elicitation and the FD split naming appear.
        assert!(result
            .log
            .iter()
            .any(|r| r.step.starts_with("IND-Discovery")));
        assert!(result.log.iter().any(|r| r.step.starts_with("Restruct")));
    }
}
