//! One benchmark run: generate a workload from its seed, set it up
//! several times, run complete reverse-engineering dialogues for the
//! requested time, check every dialogue, and report either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).

use crate::trace::{ObservedOracle, Span, TimingBackend, Tracer};
use crate::workload::{
    check, load, median, open, reverse_args, spilled_bytes, Inputs, Loaded, Outcome, Scale,
    Workload, SHAPE_SEED, SPILLED_POOL_BYTES,
};
use dbre_core::pipeline::{run_with_programs, run_with_q, PipelineOptions, PipelineResult};
use dbre_core::service::{run_service, shared_engine};
use dbre_core::session::{stages, DbreSession};
use dbre_extract::{extract_programs, ProgramSource};
use dbre_relational::backend::{CountBackend, EncodedBackend};
use dbre_relational::bufpool::{BufferPool, PageCacheStats};
use dbre_relational::counting::EquiJoin;
use dbre_relational::database::Database;
use dbre_relational::pages::{PagedBackend, PAGE_BYTES};
use dbre_relational::snapshot::DbSnapshot;
use dbre_relational::stats::{StatsCounters, StatsEngine};
use dbre_synth::TruthOracle;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("stored_bytes_per_input_byte", "ratio"),
    ("ok_frac", "ratio"),
    ("schema_f1", "ratio"),
];

/// Stage names of the session, as `stage.<name>` metric stems.
const STAGES: [(&str, &str); 6] = [
    ("key-inference", "stage.key_inference"),
    ("ind-discovery", "stage.ind_discovery"),
    ("lhs-discovery", "stage.lhs_discovery"),
    ("rhs-discovery", "stage.rhs_discovery"),
    ("restruct", "stage.restruct"),
    ("translate", "stage.translate"),
];

/// Probe kinds reported per layer (the decorator traces all of them
/// plus `ind_holds` and `prewarm`, which no dialogue reaches).
const PROBES: [&str; 8] = [
    "count_distinct",
    "join_stats",
    "lhs_groups",
    "fd_holds",
    "partition1",
    "projection",
    "column_dict",
    "column_sketch",
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for (_, stem) in STAGES {
        v.push((format!("{stem}.ms"), "ms"));
        v.push((format!("{stem}.self_ms"), "ms"));
    }
    for p in PROBES {
        v.push((format!("probe.{p}.calls"), "count"));
        v.push((format!("probe.{p}.ms"), "ms"));
    }
    for (name, unit) in [
        ("stats.hits", "count"),
        ("stats.misses", "count"),
        ("stats.hit_ratio", "ratio"),
        ("stats.rows_scanned", "count"),
        ("pool.hits", "count"),
        ("pool.misses", "count"),
        ("pool.evictions", "count"),
        ("pool.hit_ratio", "ratio"),
        ("pages.read_mib", "MiB"),
        ("ingest.ms", "ms"),
        ("ingest.rows_per_s", "1/s"),
        ("spill.bytes", "bytes"),
        ("sketch.candidates", "count"),
        ("sketch.pruned", "count"),
        ("sketch.prune_ratio", "ratio"),
        ("oracle.questions", "count"),
        ("oracle.ms", "ms"),
        ("oracle.wait_p50_ms", "ms"),
        ("session.setup_ms", "ms"),
        ("extract.ms", "ms"),
        ("extract.joins", "count"),
        ("trace.stage_coverage_pct", "%"),
        ("trace.overhead_pct", "%"),
    ] {
        v.push((name.to_string(), unit));
    }
    v
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the extension (`--seed`).
    pub seed: u64,
    /// Size of the legacy system.
    pub scale: Scale,
    /// How long to run dialogues.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Scratch directory for generated inputs and spill files.
    pub work: PathBuf,
    /// Where a traced run writes its Chrome trace and layer table
    /// (default: `work`).
    pub out: Option<PathBuf>,
}

impl Config {
    /// The benchmark's own settings for `workload`.
    pub fn new(workload: Workload, seed: u64) -> Config {
        Config {
            workload,
            seed,
            scale: workload.scale(),
            seconds: 10.0,
            trace: false,
            work: PathBuf::from("e2ebench/work"),
            out: None,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Dialogues run (warm-up excluded).
    pub attempted: usize,
    /// Dialogues that failed a check.
    pub failed: usize,
    /// One line per distinct failure.
    pub failures: Vec<String>,
    /// `name → (value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable notes for standard error.
    pub notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    fn tally(&mut self, outcome: &Outcome, reference: &Outcome) {
        self.attempted += 1;
        let failure = match (&outcome.failure, outcome.digest == reference.digest) {
            (Some(f), _) => Some(f.clone()),
            (None, false) => Some("decision log or design differs from the first dialogue".into()),
            (None, true) => None,
        };
        if let Some(f) = failure {
            self.failed += 1;
            if !self.failures.contains(&f) {
                self.failures.push(f);
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Runs one benchmark run. The input files are written by `generator`
/// (a child process, so the generated database never counts against
/// this process's memory), and the run waits for it.
pub fn run(cfg: &Config, generator: std::process::Command) -> Result<Report, String> {
    let dir = cfg
        .work
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = generate(generator, &dir).and_then(|()| run_in(cfg, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn generate(mut generator: std::process::Command, dir: &Path) -> Result<(), String> {
    let status = generator
        .arg(dir)
        .status()
        .map_err(|e| format!("cannot start the input generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generator failed: {status}"))
    }
}

fn run_in(cfg: &Config, dir: &Path) -> Result<Report, String> {
    let inputs = open(cfg.scale, cfg.seed, dir)?;
    let mut report = Report::default();
    report.notes.push(format!(
        "{}: seed {} (shape {SHAPE_SEED}), {} relations, {} rows, {} CSV bytes",
        cfg.workload.name(),
        cfg.seed,
        inputs.relations,
        inputs.rows,
        inputs.csv_bytes
    ));
    reset_peak_rss();
    let tracer = Tracer::new();
    let setup = set_up(cfg, &inputs, dir, cfg.trace.then_some(&tracer))?;
    let setup_peak = peak_rss_mib();
    let spill_bytes = spilled_bytes(&setup.loaded.spilled);
    let stored = if setup.loaded.spilled.is_empty() {
        setup.first_load_rss_bytes
    } else {
        spill_bytes
    };
    report.notes.push(format!(
        "set-up: median {:.3} s over {} loads; {} bytes stored ({})",
        median(&setup.seconds),
        setup.seconds.len(),
        stored,
        if setup.loaded.spilled.is_empty() {
            "resident-set growth across the first load".to_string()
        } else {
            format!("spill pages, against a {SPILLED_POOL_BYTES}-byte pool")
        }
    ));
    match (cfg.workload, cfg.trace) {
        (Workload::WarmService, false) => warm(cfg, &inputs, setup.loaded, &mut report),
        (Workload::WarmService, true) => {
            warm_traced(cfg, &inputs, setup.loaded, &tracer, &mut report)
        }
        (_, false) => cold(cfg, &inputs, setup.loaded, &mut report),
        (_, true) => cold_traced(cfg, &inputs, &setup.loaded, &tracer, &mut report),
    }?;
    if cfg.trace {
        let ingest_s = median(&setup.ingest_seconds);
        report.set("ingest.ms", ingest_s * 1e3, "ms");
        report.set("ingest.rows_per_s", inputs.rows as f64 / ingest_s, "1/s");
        report.set("spill.bytes", spill_bytes as f64, "bytes");
        write_trace_files(cfg, &tracer, &report)?;
    } else {
        report.set("setup_s", median(&setup.seconds), "s");
        // `cold` resets the high-water mark before its last dialogue;
        // `warm` keeps it from set-up on.
        report.set("peak_rss_mib", setup_peak.max(peak_rss_mib()), "MiB");
        report.set(
            "stored_bytes_per_input_byte",
            stored as f64 / inputs.csv_bytes as f64,
            "ratio",
        );
        let ok =
            report.attempted.saturating_sub(report.failed) as f64 / report.attempted.max(1) as f64;
        report.set("ok_frac", ok, "ratio");
    }
    Ok(report)
}

/// Result of the set-up phase.
struct SetUp {
    loaded: Loaded,
    /// Wall time of each load.
    seconds: Vec<f64>,
    /// Time inside the CSV import / streamed ingest calls of each load
    /// (traced runs only).
    ingest_seconds: Vec<f64>,
    /// How much the process's resident set grew across the first load,
    /// with the loaded database still held.
    first_load_rss_bytes: u64,
}

/// Fewest loads set-up times, however long they take.
const MIN_LOADS: usize = 5;

/// Seconds set-up keeps loading for, once it has [`MIN_LOADS`].
const SETUP_SECONDS: f64 = 3.0;

/// Loads the inputs again and again for [`SETUP_SECONDS`] (the last
/// load is kept); traced runs replay `load_inputs` step by step with
/// spans around each layer call.
fn set_up(
    cfg: &Config,
    inputs: &Inputs,
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<SetUp, String> {
    let spilled = cfg.workload == Workload::ColdSpilled;
    let mut seconds = Vec::new();
    let mut ingest_seconds = Vec::new();
    let mut first_load_rss_bytes = 0;
    let mut kept = None;
    let start = Instant::now();
    while seconds.len() < MIN_LOADS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let rep = seconds.len();
        // Release the previous load (and its spill files) first.
        drop(kept.take());
        let spill_dir = dir.join(format!("spill-{rep}"));
        if rep > 0 {
            let _ = std::fs::remove_dir_all(dir.join(format!("spill-{}", rep - 1)));
        }
        let spill_dir = spilled.then_some(spill_dir);
        let rss_before = resident_bytes();
        let t = Instant::now();
        let loaded = match tracer {
            None => load(inputs, spill_dir)?,
            Some(tracer) => {
                let (loaded, ingest) = load_traced(inputs, spill_dir, tracer)?;
                ingest_seconds.push(ingest);
                loaded
            }
        };
        seconds.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            first_load_rss_bytes = resident_bytes().saturating_sub(rss_before);
        }
        if spilled && loaded.spilled.iter().any(|(_, t)| t.from_cache()) {
            return Err("streamed ingest reused a spill-cache entry; set-up must be cold".into());
        }
        kept = Some(loaded);
    }
    Ok(SetUp {
        loaded: kept.expect("at least one load"),
        seconds,
        ingest_seconds,
        first_load_rss_bytes,
    })
}

/// `dbre_cli::load_inputs` step by step, with a `setup.ingest` span
/// around each table's import and a `setup.validate` span around
/// dictionary validation. Returns the load and the seconds spent
/// ingesting.
fn load_traced(
    inputs: &Inputs,
    spill_dir: Option<PathBuf>,
    tracer: &Arc<Tracer>,
) -> Result<(Loaded, f64), String> {
    let args = reverse_args(inputs, spill_dir);
    Tracer::begin_dialogue(0, 0);
    tracer.span("setup", || {
        let ddl = std::fs::read_to_string(&args.schema).map_err(|e| e.to_string())?;
        let mut catalog = dbre_sql::Catalog::new();
        tracer
            .span("setup.catalog", || catalog.load_script(&ddl))
            .map_err(|e| e.to_string())?;
        let mut db = catalog.into_database();
        let mut spilled = Vec::new();
        let mut ingest = Duration::ZERO;
        for (table, path) in &args.csv {
            let rel = db.rel(table).map_err(|e| e.to_string())?;
            let t = Instant::now();
            tracer.span("setup.ingest", || -> Result<(), String> {
                match &args.spill_dir {
                    Some(dir) => {
                        let t =
                            dbre_relational::csv::import_csv_spilled(&mut db, rel, path, Some(dir))
                                .map_err(|e| e.to_string())?;
                        spilled.push((rel, Arc::new(t)));
                    }
                    None => {
                        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                        dbre_relational::csv::import_csv(&mut db, rel, &text)
                            .map_err(|e| e.to_string())?;
                    }
                }
                Ok(())
            })?;
            ingest += t.elapsed();
        }
        tracer.span("setup.validate", || -> Result<(), String> {
            db.validate_dictionary().map_err(|e| e.to_string())?;
            let pool = BufferPool::default();
            for (rel, t) in &spilled {
                dbre_relational::spill::validate_spilled(&db, *rel, t, &pool)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let programs = dbre_cli::load_programs(&args.programs)?;
        Ok((
            Loaded {
                db,
                spilled,
                programs,
            },
            ingest.as_secs_f64(),
        ))
    })
}

/// Fewest dialogues a run measures, however long they take.
const MIN_DIALOGUES: usize = 3;

/// One untraced dialogue through `run_with_programs`, with a fresh
/// engine; returns its wall time and the result.
pub fn cold_dialogue(
    inputs: &Inputs,
    loaded: &Loaded,
    options: &PipelineOptions,
) -> (Duration, PipelineResult) {
    dialogue_on(loaded.db.clone(), &loaded.programs, inputs, options)
}

/// [`cold_dialogue`] on `db` itself, taken by value as `dbre reverse`
/// takes its one loaded database.
fn dialogue_on(
    db: Database,
    programs: &[ProgramSource],
    inputs: &Inputs,
    options: &PipelineOptions,
) -> (Duration, PipelineResult) {
    let mut oracle = TruthOracle::new(inputs.truth.clone());
    let t = Instant::now();
    let result = run_with_programs(db, programs, &mut oracle, options);
    (t.elapsed(), result)
}

/// One unmeasured dialogue before the measured ones. Its engine is
/// dropped with it, so every measured dialogue still starts cold; what
/// it warms is the process — the allocator's heap and thresholds grow
/// to a dialogue's working set once, instead of inside the first
/// measured dialogues.
fn warm_up_process(inputs: &Inputs, loaded: &Loaded, options: &PipelineOptions) {
    drop(cold_dialogue(inputs, loaded, options));
}

/// Runs cold dialogues on clones of the loaded database until the last
/// one is due, then that one on the database itself, with the peak
/// resident set reset before it: the peak then holds one database and
/// one dialogue, as `dbre reverse` does.
fn cold(cfg: &Config, inputs: &Inputs, loaded: Loaded, report: &mut Report) -> Result<(), String> {
    let options = cfg.workload.options(&loaded.spilled);
    warm_up_process(inputs, &loaded, &options);
    let mut walls = Vec::new();
    let mut f1 = Vec::new();
    let mut first: Option<Outcome> = None;
    let Loaded { db, programs, .. } = loaded;
    let mut db = Some(db);
    let start = Instant::now();
    loop {
        // The last dialogue is due once a typical one would end past
        // the time.
        let last = walls.len() + 1 >= MIN_DIALOGUES
            && start.elapsed().as_secs_f64() + median(&walls) >= cfg.seconds;
        let (wall, result) = if last {
            reset_peak_rss();
            let db = db
                .take()
                .expect("only the last dialogue takes the database");
            dialogue_on(db, &programs, inputs, &options)
        } else {
            let db = db.as_ref().expect("the database is still held");
            dialogue_on(db.clone(), &programs, inputs, &options)
        };
        let (outcome, schema_f1) = check(&result, inputs);
        drop(result);
        report.tally(&outcome, first.get_or_insert_with(|| outcome.clone()));
        walls.push(wall.as_secs_f64());
        f1.push(schema_f1);
        if last {
            break;
        }
    }
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    report.notes.push(format!(
        "{} dialogues ({} s)",
        walls.len(),
        shown.join(", ")
    ));
    // One analyst, one dialogue after another.
    report.set("sessions_per_s", 1.0 / median(&walls), "1/s");
    report.set("schema_f1", median(&f1), "ratio");
    Ok(())
}

/// Counters one traced dialogue (or window) moved.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    stats: StatsCounters,
    pool: PageCacheStats,
    candidates: u64,
    pruned: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.stats.cache_hits += o.stats.cache_hits;
        self.stats.cache_misses += o.stats.cache_misses;
        self.stats.rows_scanned += o.stats.rows_scanned;
        self.pool.hits += o.pool.hits;
        self.pool.misses += o.pool.misses;
        self.pool.evictions += o.pool.evictions;
        self.candidates += o.candidates;
        self.pruned += o.pruned;
    }

    fn of(result: &PipelineResult) -> Counters {
        Counters {
            stats: result.stats.counters,
            pool: result.stats.page_cache,
            candidates: result.stats.sketch.candidates,
            pruned: result.stats.sketch.pruned,
        }
    }
}

/// The span name of a session stage.
fn stage_span(name: &str) -> &'static str {
    STAGES
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("stage.other", |(_, stem)| stem)
}

/// The engine a traced dialogue probes through: the workload's backend
/// under [`TimingBackend`], under a fresh `StatsEngine` — the wiring
/// `DbreSession::new` builds, with the decorator inserted.
fn traced_engine(
    workload: Workload,
    db: &dbre_relational::Database,
    options: &PipelineOptions,
    tracer: &Arc<Tracer>,
) -> Arc<StatsEngine> {
    let backend: Box<dyn CountBackend> = if options.spilled.is_empty() {
        debug_assert!(workload != Workload::ColdSpilled);
        Box::new(EncodedBackend::new())
    } else {
        let paged = PagedBackend::with_pool(Arc::new(BufferPool::with_capacity_bytes(
            options.page_cache.expect("cold-spilled sizes its pool"),
        )));
        for (rel, table) in &options.spilled {
            paged.adopt_spilled(db, *rel, table);
        }
        Box::new(paged)
    };
    Arc::new(StatsEngine::with_backend(Box::new(TimingBackend::new(
        backend,
        Arc::clone(tracer),
    ))))
}

/// Runs every stage of `session` inside a `stage.*` span.
fn run_stages(session: &mut DbreSession<'_>, tracer: &Tracer) {
    for stage in stages(&session.options) {
        tracer.span(stage_span(stage.name()), || {
            session.run_stage(stage.as_ref())
        });
    }
}

/// One traced dialogue: `run_with_programs` taken apart into its public
/// steps (extraction, session, stages) with a span around each.
pub fn traced_cold_dialogue(
    workload: Workload,
    truth: &dbre_synth::GroundTruth,
    loaded: &Loaded,
    options: &PipelineOptions,
    tracer: &Arc<Tracer>,
    dialogue: u64,
) -> (Duration, PipelineResult) {
    let db = loaded.db.clone();
    let mut oracle = ObservedOracle::new(TruthOracle::new(truth.clone()), Arc::clone(tracer));
    Tracer::begin_dialogue(dialogue, 0);
    let t = Instant::now();
    let result = tracer.span("dialogue", || {
        let extraction = tracer.span("extract", || {
            extract_programs(&db.schema, &loaded.programs, &options.extract)
        });
        let q = extraction.q();
        let mut session = tracer.span("session.setup", || {
            let engine = traced_engine(workload, &db, options, tracer);
            let mut session = DbreSession::with_engine(db, &mut oracle, options.clone(), engine);
            session.admit_q(&q);
            session
        });
        run_stages(&mut session, tracer);
        let mut result = session.into_result();
        result.warnings.extend(extraction.warnings);
        result.provenance = extraction
            .joins
            .into_iter()
            .map(|j| (j.join, j.provenance))
            .collect();
        result
    });
    (t.elapsed(), result)
}

fn cold_traced(
    cfg: &Config,
    inputs: &Inputs,
    loaded: &Loaded,
    tracer: &Arc<Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    let options = cfg.workload.options(&loaded.spilled);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut ids = Vec::new();
    let mut totals = Counters::default();
    let mut first: Option<(Outcome, Counters)> = None;
    warm_up_process(inputs, loaded, &options);
    let start = Instant::now();
    // Alternate untraced and traced dialogues, so both see the same
    // machine state; the untraced ones give the overhead's baseline.
    while traced.len() < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        let (wall, result) = cold_dialogue(inputs, loaded, &options);
        untraced.push(wall.as_secs_f64());
        let plain = (check(&result, inputs).0, Counters::of(&result));
        drop(result);
        let id = traced.len() as u64 + 1;
        let (wall, result) =
            traced_cold_dialogue(cfg.workload, &inputs.truth, loaded, &options, tracer, id);
        traced.push(wall.as_secs_f64());
        ids.push(id);
        let observed = (check(&result, inputs).0, Counters::of(&result));
        drop(result);
        totals.add(&observed.1);
        let reference = first.get_or_insert_with(|| plain.clone());
        for (mut outcome, counters) in [plain, observed] {
            if outcome.failure.is_none() && !same_counters(&counters, &reference.1) {
                outcome.failure = Some(format!(
                    "traced and untraced dialogues moved different counters: {counters:?} vs {:?}",
                    reference.1
                ));
            }
            report.tally(&outcome, &reference.0);
        }
    }
    report.notes.push(format!(
        "{} untraced + {} traced dialogues; untraced median {:.3} s, traced median {:.3} s",
        untraced.len(),
        traced.len(),
        median(&untraced),
        median(&traced)
    ));
    let spans = tracer.spans();
    let n = ids.len() as f64;
    layer_metrics(report, &spans, &ids, &totals, n);
    let extract_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "extract" && ids.contains(&s.dialogue))
        .map(Span::ns)
        .sum();
    report.set("extract.ms", extract_ns as f64 / n / 1e6, "ms");
    report.set(
        "extract.joins",
        first_q_len(loaded, &options) as f64,
        "count",
    );
    report.set(
        "trace.overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

fn same_counters(a: &Counters, b: &Counters) -> bool {
    a.stats == b.stats
        && (a.pool.hits, a.pool.misses, a.pool.evictions)
            == (b.pool.hits, b.pool.misses, b.pool.evictions)
        && (a.candidates, a.pruned) == (b.candidates, b.pruned)
}

fn first_q_len(loaded: &Loaded, options: &PipelineOptions) -> usize {
    extract_programs(&loaded.db.schema, &loaded.programs, &options.extract)
        .q()
        .len()
}

/// Stage, probe, oracle, session, engine, pool and sketch metrics over
/// the traced dialogues `ids` (`n` of them), per dialogue.
fn layer_metrics(report: &mut Report, spans: &[Span], ids: &[u64], totals: &Counters, n: f64) {
    let spans: Vec<&Span> = spans.iter().filter(|s| ids.contains(&s.dialogue)).collect();
    let sum = |pred: &dyn Fn(&Span) -> bool| -> (f64, f64) {
        let hit: Vec<&&Span> = spans.iter().filter(|s| pred(s)).collect();
        (
            hit.len() as f64,
            hit.iter().map(|s| s.ns()).sum::<u64>() as f64,
        )
    };
    let mut stage_ns = 0.0;
    for (_, stem) in STAGES {
        let stage_ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == stem)
            .map(|s| s.id)
            .collect();
        let (_, ns) = sum(&|s| s.name == stem);
        let (_, probe_ns) = sum(&|s| {
            s.name.starts_with("probe.") && s.parent.is_some_and(|p| stage_ids.contains(&p))
        });
        stage_ns += ns;
        report.set(&format!("{stem}.ms"), ns / n / 1e6, "ms");
        report.set(&format!("{stem}.self_ms"), (ns - probe_ns) / n / 1e6, "ms");
    }
    for p in PROBES {
        let name = format!("probe.{p}");
        let (calls, ns) = sum(&|s| s.name == name);
        report.set(&format!("{name}.calls"), calls / n, "count");
        report.set(&format!("{name}.ms"), ns / n / 1e6, "ms");
    }
    let (questions, oracle_ns) = sum(&|s| s.name == "oracle");
    report.set("oracle.questions", questions / n, "count");
    report.set("oracle.ms", oracle_ns / n / 1e6, "ms");
    report.set("oracle.wait_p50_ms", wait_p50_ms(&spans), "ms");
    let (_, setup_ns) = sum(&|s| s.name == "session.setup");
    report.set("session.setup_ms", setup_ns / n / 1e6, "ms");
    let (_, dialogue_ns) = sum(&|s| s.name == "dialogue");
    report.set(
        "trace.stage_coverage_pct",
        stage_ns / dialogue_ns * 100.0,
        "%",
    );

    let c = totals;
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    report.set("stats.hits", c.stats.cache_hits as f64 / n, "count");
    report.set("stats.misses", c.stats.cache_misses as f64 / n, "count");
    report.set(
        "stats.hit_ratio",
        ratio(c.stats.cache_hits, c.stats.cache_misses),
        "ratio",
    );
    report.set(
        "stats.rows_scanned",
        c.stats.rows_scanned as f64 / n,
        "count",
    );
    report.set("pool.hits", c.pool.hits as f64 / n, "count");
    report.set("pool.misses", c.pool.misses as f64 / n, "count");
    report.set("pool.evictions", c.pool.evictions as f64 / n, "count");
    report.set("pool.hit_ratio", ratio(c.pool.hits, c.pool.misses), "ratio");
    report.set(
        "pages.read_mib",
        (c.pool.misses as f64 / n) * PAGE_BYTES as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    report.set("sketch.candidates", c.candidates as f64 / n, "count");
    report.set("sketch.pruned", c.pruned as f64 / n, "count");
    report.set(
        "sketch.prune_ratio",
        if c.candidates == 0 {
            0.0
        } else {
            c.pruned as f64 / c.candidates as f64
        },
        "ratio",
    );
}

/// Median over the questions of `spans` of the pipeline's compute time
/// before each: from its dialogue's start, or from the previous answer,
/// to the question.
fn wait_p50_ms(spans: &[&Span]) -> f64 {
    let mut dialogues: BTreeMap<u64, (u64, Vec<(u64, u64)>)> = BTreeMap::new();
    for s in spans {
        let (start, questions) = dialogues.entry(s.dialogue).or_default();
        match s.name {
            "dialogue" => *start = s.start_ns,
            "oracle" => questions.push((s.start_ns, s.end_ns)),
            _ => {}
        }
    }
    let mut waits = Vec::new();
    for (start, mut questions) in dialogues.into_values() {
        questions.sort_unstable();
        let mut since = start;
        for (asked, answered) in questions {
            waits.push((asked - since) as f64 / 1e6);
            since = answered;
        }
    }
    if waits.is_empty() {
        0.0
    } else {
        median(&waits)
    }
}

/// Closed-loop analysts of `warm-service`.
pub const ANALYSTS: usize = 2;

/// What the warm-service set-up shares between analysts.
pub struct Service {
    /// The snapshot every session starts from.
    pub snapshot: DbSnapshot,
    /// `Q`, extracted once when the service starts.
    pub q: Vec<EquiJoin>,
    /// Options of every session.
    pub options: PipelineOptions,
    /// A serial run every session must reproduce.
    pub serial: PipelineResult,
}

impl Service {
    /// Builds the service over `loaded`, with a serial reference run
    /// (as `dbre reverse --sessions` does).
    pub fn new(truth: &dbre_synth::GroundTruth, loaded: Loaded) -> Service {
        let options = Workload::WarmService.options(&loaded.spilled);
        let q = extract_programs(&loaded.db.schema, &loaded.programs, &options.extract).q();
        let mut oracle = TruthOracle::new(truth.clone());
        let serial = run_with_q(loaded.db.clone(), &q, &mut oracle, &options);
        Service {
            snapshot: DbSnapshot::new(loaded.db),
            q,
            options,
            serial,
        }
    }

    /// Does `result` reproduce the serial run?
    pub fn agrees(&self, result: &PipelineResult) -> bool {
        result.stage_errors.is_empty()
            && result.stats.backend_exec.fallback_failures == 0
            && result.log == self.serial.log
            && result.ind.inds == self.serial.ind.inds
            && result.rhs.fds == self.serial.rhs.fds
            && result.eer == self.serial.eer
    }

    /// One untraced dialogue through `run_service` on `engine`; the
    /// expert is built before the clock starts.
    pub fn dialogue(
        &self,
        truth: &dbre_synth::GroundTruth,
        engine: &Arc<StatsEngine>,
    ) -> dbre_core::service::SessionOutcome {
        let oracle = Mutex::new(Some(TruthOracle::new(truth.clone())));
        let mut report = run_service(&self.snapshot, engine, &self.q, &self.options, 1, |_| {
            oracle
                .lock()
                .expect("oracle cell lock poisoned")
                .take()
                .expect("one session takes one oracle")
        });
        report.outcomes.pop().expect("one session ran")
    }

    /// One traced dialogue: `run_service`'s session body with a span
    /// around each public step.
    pub fn traced_dialogue(
        &self,
        truth: &dbre_synth::GroundTruth,
        engine: &Arc<StatsEngine>,
        tracer: &Arc<Tracer>,
    ) -> PipelineResult {
        let mut oracle = ObservedOracle::new(TruthOracle::new(truth.clone()), Arc::clone(tracer));
        tracer.span("dialogue", || {
            let mut session = tracer.span("session.setup", || {
                let mut session = DbreSession::with_engine(
                    self.snapshot.to_database(),
                    &mut oracle,
                    self.options.clone(),
                    Arc::clone(engine),
                );
                session.admit_q(&self.q);
                session
            });
            run_stages(&mut session, tracer);
            session.into_result()
        })
    }
}

/// What a closed-loop analyst learns from one dialogue.
struct Dialogue {
    /// Did it reproduce the serial run?
    agrees: bool,
    /// Sketch candidates examined and pruned.
    sketch: (u64, u64),
    /// Trace id (traced dialogues only).
    id: Option<u64>,
}

/// Output of one closed-loop window.
#[derive(Default)]
struct Window {
    dialogues: Vec<Dialogue>,
    /// When each dialogue completed, seconds into the window.
    ends: Vec<f64>,
    /// Wall time from the first start to the last completion.
    wall: f64,
}

/// Slices a window's completions are counted in for its throughput.
const SLICES: usize = 10;

impl Window {
    /// Completed dialogues per second: the median over [`SLICES`]
    /// equal slices of the window, so a burst of interference that
    /// covers less than half the window does not move it.
    fn rate(&self) -> f64 {
        let len = self.wall / SLICES as f64;
        let mut counts = [0.0f64; SLICES];
        for end in &self.ends {
            counts[((end / len) as usize).min(SLICES - 1)] += 1.0;
        }
        median(&counts) / len
    }

    fn disagreed(&self) -> usize {
        self.dialogues.iter().filter(|d| !d.agrees).count()
    }
}

/// Runs [`ANALYSTS`] closed-loop analysts for `seconds`: each starts
/// its next dialogue as soon as its previous one ends.
fn closed_loop(seconds: f64, dialogue: impl Fn(usize) -> Dialogue + Sync) -> Window {
    let start = Instant::now();
    let per_analyst: Vec<Vec<(f64, Dialogue)>> = std::thread::scope(|scope| {
        let dialogue = &dialogue;
        let handles: Vec<_> = (0..ANALYSTS)
            .map(|a| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while done.is_empty() || start.elapsed().as_secs_f64() < seconds {
                        let d = dialogue(a);
                        done.push((start.elapsed().as_secs_f64(), d));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread panicked"))
            .collect()
    });
    let (ends, dialogues) = per_analyst.into_iter().flatten().unzip();
    Window {
        wall: start.elapsed().as_secs_f64(),
        ends,
        dialogues,
    }
}

/// Dialogues per analyst run before a window, to fill the shared caches.
const WARM_UP: usize = 3;

/// Runs [`WARM_UP`] dialogues on each of [`ANALYSTS`] threads.
fn warm_up(dialogue: impl Fn(usize) + Sync) {
    std::thread::scope(|scope| {
        let dialogue = &dialogue;
        for a in 0..ANALYSTS {
            scope.spawn(move || (0..WARM_UP).for_each(|_| dialogue(a)));
        }
    });
}

fn untraced_window(
    service: &Service,
    truth: &dbre_synth::GroundTruth,
    engine: &Arc<StatsEngine>,
    seconds: f64,
) -> Window {
    closed_loop(seconds, |_| {
        let o = service.dialogue(truth, engine);
        Dialogue {
            agrees: service.agrees(&o.result),
            sketch: (
                o.result.stats.sketch.candidates,
                o.result.stats.sketch.pruned,
            ),
            id: None,
        }
    })
}

fn warm(cfg: &Config, inputs: &Inputs, loaded: Loaded, report: &mut Report) -> Result<(), String> {
    let service = Service::new(&inputs.truth, loaded);
    let (serial, schema_f1) = check(&service.serial, inputs);
    if let Some(f) = serial.failure {
        return Err(format!("serial reference run fails its checks: {f}"));
    }
    let engine = shared_engine(&service.options);
    warm_up(|_| {
        service.dialogue(&inputs.truth, &engine);
    });
    let w = untraced_window(&service, &inputs.truth, &engine, cfg.seconds);
    tally_window(report, &w);
    report.notes.push(format!(
        "{} dialogues by {ANALYSTS} analysts in {:.3} s",
        w.dialogues.len(),
        w.wall
    ));
    report.set("sessions_per_s", w.rate(), "1/s");
    report.set("schema_f1", schema_f1, "ratio");
    Ok(())
}

fn tally_window(report: &mut Report, w: &Window) {
    report.attempted += w.dialogues.len();
    report.failed += w.disagreed();
    if w.disagreed() > 0 {
        report.failures.push(format!(
            "{} dialogue(s) differ from the serial run",
            w.disagreed()
        ));
    }
}

fn warm_traced(
    cfg: &Config,
    inputs: &Inputs,
    loaded: Loaded,
    tracer: &Arc<Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    Tracer::begin_dialogue(0, 0);
    let t = Instant::now();
    let q = tracer.span("extract", || {
        extract_programs(&loaded.db.schema, &loaded.programs, &Default::default()).q()
    });
    let extract_ms = t.elapsed().as_secs_f64() * 1e3;
    let service = Service::new(&inputs.truth, loaded);
    if q != service.q {
        return Err("traced extraction differs from the service's".into());
    }
    if let Some(f) = check(&service.serial, inputs).0.failure {
        return Err(format!("serial reference run fails its checks: {f}"));
    }
    let half = cfg.seconds / 2.0;

    // Untraced half: the baseline of the tracing overhead.
    let engine = shared_engine(&service.options);
    warm_up(|_| {
        service.dialogue(&inputs.truth, &engine);
    });
    let plain = untraced_window(&service, &inputs.truth, &engine, half);
    tally_window(report, &plain);

    // Traced half over a traced engine, warmed up the same way.
    let traced_engine = Arc::new(StatsEngine::with_backend(Box::new(TimingBackend::new(
        Box::new(EncodedBackend::new()),
        Arc::clone(tracer),
    ))));
    let next_id = AtomicU64::new(1);
    let traced_dialogue = |analyst: usize| {
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        Tracer::begin_dialogue(id, analyst as u64 + 1);
        let result = service.traced_dialogue(&inputs.truth, &traced_engine, tracer);
        Dialogue {
            agrees: service.agrees(&result),
            sketch: (result.stats.sketch.candidates, result.stats.sketch.pruned),
            id: Some(id),
        }
    };
    warm_up(|a| {
        traced_dialogue(a);
    });
    let before = traced_engine.counters();
    let traced = closed_loop(half, traced_dialogue);
    let after = traced_engine.counters();
    tally_window(report, &traced);
    let ids: Vec<u64> = traced.dialogues.iter().filter_map(|d| d.id).collect();
    report.notes.push(format!(
        "untraced {:.1} dialogues/s, traced {:.1} dialogues/s",
        plain.rate(),
        traced.rate()
    ));
    let totals = Counters {
        stats: StatsCounters {
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
            rows_scanned: after.rows_scanned - before.rows_scanned,
        },
        pool: traced_engine.page_stats(),
        candidates: traced.dialogues.iter().map(|d| d.sketch.0).sum(),
        pruned: traced.dialogues.iter().map(|d| d.sketch.1).sum(),
    };
    let spans = tracer.spans();
    layer_metrics(report, &spans, &ids, &totals, ids.len() as f64);
    report.set("extract.ms", extract_ms, "ms");
    report.set("extract.joins", q.len() as f64, "count");
    report.set(
        "trace.overhead_pct",
        (plain.rate() / traced.rate() - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

/// Writes `<workload>.trace.json` (set-up plus the last traced
/// dialogue of each analyst) and `<workload>.layers.md` under `out`.
fn write_trace_files(cfg: &Config, tracer: &Tracer, report: &Report) -> Result<(), String> {
    let out = cfg.out.as_ref().unwrap_or(&cfg.work);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let spans = tracer.spans();
    let mut last: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "dialogue") {
        let e = last.entry(s.thread).or_insert(s.dialogue);
        *e = (*e).max(s.dialogue);
    }
    let kept: Vec<u64> = last.into_values().collect();
    let json = tracer.chrome_json(|s| s.dialogue == 0 || kept.contains(&s.dialogue));
    let name = cfg.workload.name();
    let trace_path = out.join(format!("{name}.trace.json"));
    std::fs::write(&trace_path, json)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    let mut md = format!(
        "# `{name}` per-layer breakdown\n\n\
         One traced run: seed {}, shape seed {}, {} entities × {} rows, {} s.\n\
         Values are per dialogue (means over the traced dialogues) unless the\n\
         unit is a ratio or a percentage.\n\n",
        cfg.seed, SHAPE_SEED, cfg.scale.entities, cfg.scale.rows, cfg.seconds
    );
    for n in &report.notes {
        md.push_str(&format!("- {n}\n"));
    }
    md.push_str("\n| metric | value | unit |\n|---|---:|---|\n");
    for (name, (value, unit)) in &report.metrics {
        md.push_str(&format!("| `{name}` | {value:.3} | {unit} |\n"));
    }
    let md_path = out.join(format!("{name}.layers.md"));
    std::fs::write(&md_path, md).map_err(|e| format!("cannot write {}: {e}", md_path.display()))
}

/// Forgets the process's peak resident set so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since [`reset_peak_rss`], MiB.
fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// The process's resident set now, bytes.
fn resident_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// A `kB` field of `/proc/self/status` (0 when it cannot be read).
fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
