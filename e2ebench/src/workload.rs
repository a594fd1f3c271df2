//! The three workloads: synthetic legacy systems generated from a seed,
//! written out as the files a user would hand the CLI, loaded back the
//! way the CLI loads them, and checked against the ground truth.

use dbre_cli::{load_inputs, load_programs, ReverseArgs, SpilledInputs};
use dbre_core::pipeline::{PipelineOptions, PipelineResult};
use dbre_core::render::{render_fds, render_inds, render_log};
use dbre_core::BackendChoice;
use dbre_extract::ProgramSource;
use dbre_relational::csv::export_csv;
use dbre_relational::database::Database;
use dbre_synth::{
    build_workload, evaluate, generate_programs, generate_spec, DenormConfig, GroundTruth,
    ProgramConfig, SynthConfig,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Buffer-pool capacity of `cold-spilled`: about a sixth of its
/// spilled pages, so the kernels stream through the pool.
pub const SPILLED_POOL_BYTES: usize = 2 * 1024 * 1024;

/// The seed that fixes a workload's schema, denormalisation plan and
/// programs. `--seed` varies the extension over that fixed shape.
pub const SHAPE_SEED: u64 = 42;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Declared keys, extensions imported into memory, `encoded`
    /// backend, a fresh engine per dialogue.
    ColdInmem,
    /// No declared keys (key inference runs), extensions streamed to
    /// spill pages, `paged` backend over a small buffer pool, a fresh
    /// engine per dialogue.
    ColdSpilled,
    /// Two closed-loop analysts sharing one snapshot and one engine
    /// through `run_service`.
    WarmService,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdInmem,
        Workload::ColdSpilled,
        Workload::WarmService,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdInmem => "cold-inmem",
            Workload::ColdSpilled => "cold-spilled",
            Workload::WarmService => "warm-service",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Entities × rows per entity of the benchmark proper.
    pub fn scale(self) -> Scale {
        match self {
            Workload::ColdInmem | Workload::ColdSpilled => Scale {
                entities: 8,
                rows: 20_000,
            },
            Workload::WarmService => Scale {
                entities: 8,
                rows: 1_000,
            },
        }
    }

    /// Does the dictionary declare the keys?
    fn declares_keys(self) -> bool {
        self != Workload::ColdSpilled
    }

    /// The pipeline options of one dialogue, given what setup loaded.
    pub fn options(self, spilled: &SpilledInputs) -> PipelineOptions {
        let mut options = PipelineOptions {
            backend: BackendChoice::Encoded,
            sketch: dbre_core::SketchMode::On,
            ..Default::default()
        };
        if self == Workload::ColdSpilled {
            options.backend = BackendChoice::Paged;
            options.page_cache = Some(SPILLED_POOL_BYTES);
            options.infer_missing_keys = true;
            options.spilled = spilled.clone();
        }
        options
    }
}

/// Size of a generated legacy system.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Entity types in the conceptual spec.
    pub entities: usize,
    /// Rows per entity (relationships get twice as many).
    pub rows: usize,
}

/// The generated input files plus the answer key.
pub struct Inputs {
    /// DDL script.
    pub schema: PathBuf,
    /// One CSV per legacy relation.
    pub csv: Vec<(String, PathBuf)>,
    /// One file per application program.
    pub programs: PathBuf,
    /// The answer key, without the normalised extension (evaluation
    /// and the simulated expert need names only).
    pub truth: GroundTruth,
    /// Which navigations the programs exhibit.
    pub covered: Vec<bool>,
    /// Legacy relations.
    pub relations: usize,
    /// Rows over all legacy relations.
    pub rows: usize,
    /// Bytes over all CSV files.
    pub csv_bytes: u64,
}

/// Rows per entity of the copy of a workload that [`open`] builds for
/// its answer key: the key names relations, attributes and
/// dependencies only, which the row count does not change.
const KEY_ROWS: usize = 64;

/// The generated legacy database, its answer key and its programs.
fn scenario(
    scale: Scale,
    shape_seed: u64,
    data_seed: u64,
) -> (Database, GroundTruth, dbre_synth::GeneratedPrograms) {
    let spec = generate_spec(&SynthConfig {
        n_entities: scale.entities,
        n_relationships: (scale.entities / 2).max(1),
        n_entity_fks: scale.entities,
        n_isa: (scale.entities / 6).min(2),
        rows_per_entity: scale.rows,
        rows_per_relationship: scale.rows * 2,
        seed: shape_seed,
        ..Default::default()
    });
    let denorm = DenormConfig {
        p_embed: 0.7,
        p_drop: 0.4,
        seed: shape_seed,
    };
    let (db, truth) = build_workload(&spec, &denorm, data_seed);
    let programs = generate_programs(
        &truth,
        &ProgramConfig {
            coverage: 1.0,
            noise_programs: 2,
            seed: data_seed,
        },
    );
    (db, truth, programs)
}

/// Generates the legacy system of `workload` at `scale` (shape
/// [`SHAPE_SEED`], extension `data_seed`) and writes the files a user
/// would hand the CLI under `dir`: `schema.sql`, one CSV per relation,
/// one file per program, and `manifest.txt` (relation names in schema
/// order, row and byte totals).
pub fn write_inputs(
    workload: Workload,
    scale: Scale,
    data_seed: u64,
    dir: &Path,
) -> Result<(), String> {
    let (db, _, generated) = scenario(scale, SHAPE_SEED, data_seed);
    let io = |p: &Path, e: std::io::Error| format!("cannot write {}: {e}", p.display());
    for d in [dir.join("programs"), dir.join("csv")] {
        std::fs::create_dir_all(&d).map_err(|e| io(&d, e))?;
    }
    let schema = dir.join("schema.sql");
    std::fs::write(&schema, ddl(&db, workload.declares_keys())).map_err(|e| io(&schema, e))?;
    let mut manifest = String::new();
    let (mut rows, mut csv_bytes) = (0usize, 0u64);
    for (rel, relation) in db.schema.iter() {
        let path = csv_path(dir, &relation.name);
        let text = export_csv(&db, rel);
        csv_bytes += text.len() as u64;
        rows += db.table(rel).len();
        std::fs::write(&path, text).map_err(|e| io(&path, e))?;
        manifest.push_str(&format!("relation {}\n", relation.name));
    }
    manifest.push_str(&format!("rows {rows}\ncsv_bytes {csv_bytes}\n"));
    for p in &generated.programs {
        let path = dir.join("programs").join(&p.name);
        std::fs::write(&path, &p.text).map_err(|e| io(&path, e))?;
    }
    let path = dir.join("manifest.txt");
    std::fs::write(&path, manifest).map_err(|e| io(&path, e))
}

fn csv_path(dir: &Path, relation: &str) -> PathBuf {
    dir.join("csv").join(format!("{relation}.csv"))
}

/// Opens the files [`write_inputs`] wrote under `dir`, with the answer
/// key of the same workload regenerated at [`KEY_ROWS`] rows per
/// entity.
pub fn open(scale: Scale, data_seed: u64, dir: &Path) -> Result<Inputs, String> {
    let path = dir.join("manifest.txt");
    let manifest = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (mut csv, mut rows, mut csv_bytes) = (Vec::new(), None, None);
    for line in manifest.lines() {
        match line.split_once(' ') {
            Some(("relation", name)) => csv.push((name.to_string(), csv_path(dir, name))),
            Some(("rows", n)) => rows = n.parse().ok(),
            Some(("csv_bytes", n)) => csv_bytes = n.parse().ok(),
            _ => return Err(format!("{}: unexpected line `{line}`", path.display())),
        }
    }
    let key_scale = Scale {
        rows: scale.rows.min(KEY_ROWS),
        ..scale
    };
    let (_, mut truth, generated) = scenario(key_scale, SHAPE_SEED, data_seed);
    truth.normalized = schema_only(&truth.normalized);
    Ok(Inputs {
        schema: dir.join("schema.sql"),
        relations: csv.len(),
        csv,
        programs: dir.join("programs"),
        truth,
        covered: generated.covered,
        rows: rows.ok_or("manifest lacks `rows`")?,
        csv_bytes: csv_bytes.ok_or("manifest lacks `csv_bytes`")?,
    })
}

/// The answer-key fields [`open`] relies on, rendered for comparison:
/// equal renderings mean equal keys for evaluation and for the
/// simulated expert.
pub fn answer_key_names(scale: Scale, shape_seed: u64, data_seed: u64) -> String {
    let (_, truth, generated) = scenario(scale, shape_seed, data_seed);
    let names: Vec<String> = truth
        .normalized
        .schema
        .iter()
        .map(|(_, r)| format!("{} {:?}", r.name, r.attributes()))
        .chain(truth.spec.entities.iter().map(|e| {
            format!(
                "{} {:?} {:?} {:?}",
                e.name, e.key_attrs, e.attrs, e.isa_parent
            )
        }))
        .collect();
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{names:?}",
        truth.plan,
        truth.expected_fds,
        truth.expected_inds,
        truth.hidden_sites,
        truth.join_specs,
        generated.covered
    )
}

/// The schema and constraints of `db` with empty extensions.
fn schema_only(db: &Database) -> Database {
    let mut out = Database::new();
    for (_, relation) in db.schema.iter() {
        out.add_relation(relation.clone())
            .expect("relation names of a valid schema are unique");
    }
    out.constraints = db.constraints.clone();
    out
}

/// `CREATE TABLE` statements for `db`'s schema: column domains, `NOT
/// NULL`, and — when `keys` — one `UNIQUE` per declared key.
fn ddl(db: &Database, keys: bool) -> String {
    let mut out = String::new();
    for (rel, relation) in db.schema.iter() {
        let mut items: Vec<String> = relation
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let id = dbre_relational::AttrId(i as u16);
                let not_null = db.constraints.not_null.contains(&(rel, id));
                format!(
                    "{} {}{}",
                    a.name,
                    a.domain.sql_name(),
                    if not_null { " NOT NULL" } else { "" }
                )
            })
            .collect();
        if keys {
            for key in db.constraints.keys.iter().filter(|k| k.rel == rel) {
                let names: Vec<&str> = key.attrs.iter().map(|a| relation.attr_name(a)).collect();
                items.push(format!("UNIQUE ({})", names.join(", ")));
            }
        }
        out.push_str(&format!(
            "CREATE TABLE {} (\n  {}\n);\n",
            relation.name,
            items.join(",\n  ")
        ));
    }
    out
}

/// What one set-up produced.
pub struct Loaded {
    /// The validated database (streamed extensions on `cold-spilled`).
    pub db: Database,
    /// Streamed extensions, for [`PipelineOptions::spilled`].
    pub spilled: SpilledInputs,
    /// The application programs.
    pub programs: Vec<ProgramSource>,
}

/// The CLI arguments that load `inputs`; `spill_dir` selects streamed
/// ingest.
pub fn reverse_args(inputs: &Inputs, spill_dir: Option<PathBuf>) -> ReverseArgs {
    ReverseArgs {
        schema: inputs.schema.clone(),
        csv: inputs.csv.clone(),
        programs: vec![inputs.programs.clone()],
        oracle: "auto".into(),
        spill_dir,
        ..Default::default()
    }
}

/// Loads `inputs` exactly as `dbre reverse` does: CSV import (or a
/// cold streamed ingest into the empty `spill_dir`), then dictionary
/// validation, then the program files.
pub fn load(inputs: &Inputs, spill_dir: Option<PathBuf>) -> Result<Loaded, String> {
    let args = reverse_args(inputs, spill_dir);
    let (db, spilled) = load_inputs(&args)?;
    let programs = load_programs(&args.programs)?;
    Ok(Loaded {
        db,
        spilled,
        programs,
    })
}

/// Bytes of spill pages behind `spilled`.
pub fn spilled_bytes(spilled: &SpilledInputs) -> u64 {
    spilled
        .iter()
        .flat_map(|(_, t)| t.columns())
        .map(|c| std::fs::metadata(c.file().path()).map_or(0, |m| m.len()))
        .sum()
}

/// The outputs a dialogue's correctness rests on, reduced to what
/// later dialogues must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Hash of the decision log, elicited INDs and FDs, and EER text.
    pub digest: u64,
    /// Why this dialogue fails the checks, if it does.
    pub failure: Option<String>,
}

/// Checks one dialogue against the ground truth: no degraded stage, no
/// silent fallback, IND and FD precision and recall of 1.0 over the
/// navigations the programs exhibit. Returns the outcome and the
/// restructured-schema F1.
pub fn check(result: &PipelineResult, inputs: &Inputs) -> (Outcome, f64) {
    let quality = evaluate(result, &inputs.truth, Some(&inputs.covered));
    let mut problems = Vec::new();
    if !result.stage_errors.is_empty() {
        let errors: Vec<String> = result.stage_errors.iter().map(|e| e.to_string()).collect();
        problems.push(format!("degraded stages: {}", errors.join("; ")));
    }
    let fallbacks = result.stats.backend_exec.fallback_failures;
    if fallbacks > 0 {
        problems.push(format!("{fallbacks} probe(s) served by a fallback"));
    }
    for (what, prf) in [("IND", quality.ind), ("FD", quality.fd)] {
        if prf.precision < 1.0 || prf.recall < 1.0 {
            problems.push(format!(
                "{what} precision {:.3} recall {:.3}",
                prf.precision, prf.recall
            ));
        }
    }
    let mut h = DefaultHasher::new();
    render_log(&result.log).hash(&mut h);
    render_inds(&result.db_before, &result.ind.inds).hash(&mut h);
    render_fds(&result.db_before, &result.rhs.fds).hash(&mut h);
    result.eer.render_text().hash(&mut h);
    let outcome = Outcome {
        digest: h.finish(),
        failure: (!problems.is_empty()).then(|| problems.join(", ")),
    };
    (outcome, quality.schema.f1)
}

/// Median of `xs` (which must not be empty): the middle value, or the
/// mean of the two middle values.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}
