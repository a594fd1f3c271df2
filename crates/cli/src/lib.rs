//! # dbre-cli
//!
//! Command-line front end for the DBRE pipeline. The logic lives here
//! (testable); `src/main.rs` is a thin wrapper.
//!
//! ```text
//! dbre reverse --schema schema.sql [--data data.sql]
//!              [--csv Table=rows.csv]... [--programs file|dir]...
//!              [--oracle auto|deny] [--backend reference|encoded|sql|paged]
//!              [--page-cache MIB] [--spill-dir DIR] [--infer-keys]
//!              [--sessions N] [--dot out.dot] [--quiet]
//! dbre extract --schema schema.sql [--programs file|dir]...
//! dbre example
//! ```
//!
//! `--backend paged` and `--spill-dir` stream the `--csv` extensions to
//! spill pages instead of loading them into memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dbre_core::pipeline::{run_with_programs, PipelineOptions};
use dbre_core::render::{render_fds, render_inds, render_log, render_schema};
use dbre_core::{AutoOracle, DenyOracle, Oracle};
use dbre_extract::{ProgramSource, SourceKind};
use dbre_relational::csv::{import_csv_files, load_workers, CsvTarget, FileFailure};
use dbre_sql::Catalog;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Bytes per MiB, the unit of `--page-cache`.
const MIB: usize = 1024 * 1024;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Full pipeline run.
    Reverse(ReverseArgs),
    /// Equi-join extraction only.
    Extract(ExtractArgs),
    /// The paper's worked example.
    Example,
    /// Usage text requested (or parse failure with message).
    Help(Option<String>),
}

/// Arguments of `dbre reverse`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReverseArgs {
    /// DDL script path.
    pub schema: PathBuf,
    /// Optional INSERT script path.
    pub data: Option<PathBuf>,
    /// `Table=path.csv` extension loads.
    pub csv: Vec<(String, PathBuf)>,
    /// Program files/directories.
    pub programs: Vec<PathBuf>,
    /// `auto` (default) or `deny`.
    pub oracle: String,
    /// Counting backend: `encoded` (default), `reference`, `sql`, or
    /// `paged`. `paged` means out of core: `--csv` extensions stream to
    /// temporary spill files instead of materializing, and the paged
    /// backend reads them through its buffer pool.
    pub backend: String,
    /// Buffer-pool capacity in MiB for `--backend paged`
    /// (default 64).
    pub page_cache: Option<usize>,
    /// Persistent spill-cache directory: `--csv` extensions stream
    /// straight to checksummed spill files under this directory (keyed
    /// by schema fingerprint + content hash) instead of materializing,
    /// and a rerun on unchanged inputs skips the encode entirely.
    /// Implies the paged backend.
    pub spill_dir: Option<PathBuf>,
    /// Infer missing keys from the extension.
    pub infer_keys: bool,
    /// Service bench mode: run this many concurrent sessions over one
    /// shared snapshot and engine, print throughput and presumption
    /// latency, and check all logs against a serial run.
    pub sessions: Option<usize>,
    /// Write the EER diagram as DOT here.
    pub dot: Option<PathBuf>,
    /// Suppress the decision log.
    pub quiet: bool,
}

/// Arguments of `dbre extract`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtractArgs {
    /// DDL script path.
    pub schema: PathBuf,
    /// Program files/directories.
    pub programs: Vec<PathBuf>,
}

/// Usage text.
pub const USAGE: &str = "\
dbre — reverse engineering of denormalized relational databases (ICDE'96)

USAGE:
  dbre reverse --schema DDL.sql [--data INSERTS.sql]
               [--csv Table=rows.csv]... [--programs FILE|DIR]...
               [--oracle auto|deny] [--backend reference|encoded|sql|paged]
               [--page-cache MIB] [--spill-dir DIR] [--infer-keys]
               [--sessions N] [--dot OUT.dot] [--quiet]
  dbre extract --schema DDL.sql [--programs FILE|DIR]...
  dbre example
  dbre help

--backend paged and --spill-dir DIR stream every --csv extension to
spill pages instead of loading it into memory (temporary files, or a
cache under DIR that reruns on unchanged inputs reuse).
";

/// Parses argv (without the binary name).
pub fn parse_args(args: &[String]) -> Command {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("example") => Command::Example,
        Some("help") | None => Command::Help(None),
        Some(cmd @ ("reverse" | "extract")) => {
            let mut reverse = ReverseArgs {
                oracle: "auto".into(),
                backend: String::new(),
                ..Default::default()
            };
            let mut schema_seen = false;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} expects a value"))
                };
                let r: Result<(), String> = (|| {
                    match flag.as_str() {
                        "--schema" => {
                            reverse.schema = PathBuf::from(value("--schema")?);
                            schema_seen = true;
                        }
                        "--data" => reverse.data = Some(PathBuf::from(value("--data")?)),
                        "--csv" => {
                            let v = value("--csv")?;
                            let (table, path) = v.split_once('=').ok_or_else(|| {
                                format!("--csv expects Table=path.csv, got `{v}`")
                            })?;
                            reverse.csv.push((table.to_string(), PathBuf::from(path)));
                        }
                        "--programs" => reverse.programs.push(PathBuf::from(value("--programs")?)),
                        "--oracle" => {
                            let v = value("--oracle")?;
                            if v != "auto" && v != "deny" {
                                return Err(format!("--oracle must be auto or deny, got `{v}`"));
                            }
                            reverse.oracle = v;
                        }
                        "--backend" => {
                            let v = value("--backend")?;
                            if dbre_core::BackendChoice::parse(&v).is_none() {
                                return Err(format!(
                                    "--backend must be reference, encoded, sql or paged, got `{v}`"
                                ));
                            }
                            reverse.backend = v;
                        }
                        "--page-cache" => {
                            let v = value("--page-cache")?;
                            let mib: usize = v
                                .parse()
                                .ok()
                                .filter(|m: &usize| *m > 0 && m.checked_mul(MIB).is_some())
                                .ok_or_else(|| {
                                    format!("--page-cache expects a positive MiB count, got `{v}`")
                                })?;
                            reverse.page_cache = Some(mib);
                        }
                        "--spill-dir" => {
                            reverse.spill_dir = Some(PathBuf::from(value("--spill-dir")?));
                        }
                        "--infer-keys" => reverse.infer_keys = true,
                        "--sessions" => {
                            let v = value("--sessions")?;
                            let n: usize = v.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                                format!("--sessions expects a positive count, got `{v}`")
                            })?;
                            reverse.sessions = Some(n);
                        }
                        "--dot" => reverse.dot = Some(PathBuf::from(value("--dot")?)),
                        "--quiet" => reverse.quiet = true,
                        other => return Err(format!("unknown flag `{other}`")),
                    }
                    Ok(())
                })();
                if let Err(m) = r {
                    return Command::Help(Some(m));
                }
            }
            if !schema_seen {
                return Command::Help(Some("--schema is required".into()));
            }
            if cmd == "extract" {
                Command::Extract(ExtractArgs {
                    schema: reverse.schema,
                    programs: reverse.programs,
                })
            } else {
                Command::Reverse(reverse)
            }
        }
        Some(other) => Command::Help(Some(format!("unknown command `{other}`"))),
    }
}

/// Collects program sources from files and directories (a directory
/// contributes every regular file it directly contains).
pub fn load_programs(paths: &[PathBuf]) -> Result<Vec<ProgramSource>, String> {
    let mut out = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_file())
                .collect();
            entries.sort();
            for file in entries {
                out.push(read_program(&file)?);
            }
        } else {
            out.push(read_program(path)?);
        }
    }
    Ok(out)
}

fn read_program(path: &Path) -> Result<ProgramSource, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    Ok(ProgramSource {
        name,
        text,
        kind: SourceKind::Auto,
    })
}

/// Builds the database from the reverse-command inputs.
pub fn load_database(args: &ReverseArgs) -> Result<dbre_relational::Database, String> {
    Ok(load_inputs(args)?.0)
}

/// Streamed extensions produced by [`load_inputs`], destined for
/// [`PipelineOptions::spilled`].
pub type SpilledInputs = Vec<(
    dbre_relational::RelId,
    std::sync::Arc<dbre_relational::SpilledTable>,
)>;

/// Builds the database plus any streamed extensions.
///
/// Without `--spill-dir` or `--backend paged` every `--csv` extension
/// loads into memory as [`dbre_relational::csv::import_csv`] loads it
/// and the second element is empty. With either, each extension
/// streams straight to checksummed spill files — under the cache
/// directory, where reruns on unchanged inputs load the committed
/// entry instead of re-encoding, or else to temporary files. The
/// extensions load on as many threads as [`load_workers`] finds worth
/// it, with the result and the first error of a load one file at a
/// time. Either way the tables are validated against the dictionary.
pub fn load_inputs(
    args: &ReverseArgs,
) -> Result<(dbre_relational::Database, SpilledInputs), String> {
    load_with(args, None)
}

/// [`load_inputs`] on `workers` loading threads, or on as many as
/// [`load_workers`] gives when `None`.
pub(crate) fn load_with(
    args: &ReverseArgs,
    workers: Option<usize>,
) -> Result<(dbre_relational::Database, SpilledInputs), String> {
    let ddl = std::fs::read_to_string(&args.schema)
        .map_err(|e| format!("cannot read {}: {e}", args.schema.display()))?;
    let mut catalog = Catalog::new();
    catalog
        .load_script(&ddl)
        .map_err(|e| format!("{}: {e}", args.schema.display()))?;
    if let Some(data) = &args.data {
        let inserts = std::fs::read_to_string(data)
            .map_err(|e| format!("cannot read {}: {e}", data.display()))?;
        catalog
            .load_script(&inserts)
            .map_err(|e| format!("{}: {e}", data.display()))?;
    }
    let mut db = catalog.into_database();
    // The files before the first unknown table load; its error comes
    // after theirs.
    let mut files = Vec::with_capacity(args.csv.len());
    let mut unknown = None;
    for (table, path) in &args.csv {
        match db.rel(table) {
            Ok(rel) => files.push((rel, path.clone())),
            Err(_) => {
                unknown = Some(format!("--csv names unknown table `{table}`"));
                break;
            }
        }
    }
    let target = if args.spill_dir.is_some() || args.backend == "paged" {
        CsvTarget::Streamed(args.spill_dir.as_deref())
    } else {
        CsvTarget::Resident
    };
    let workers = workers.unwrap_or_else(|| load_workers(&files));
    let spilled = import_csv_files(&mut db, &files, target, workers).map_err(|e| {
        let path = files[e.file].1.display();
        match e.cause {
            FileFailure::Read(e) => format!("cannot read {path}: {e}"),
            FileFailure::Csv(e) => format!("{path}: {e}"),
        }
    })?;
    if let Some(unknown) = unknown {
        return Err(unknown);
    }
    db.validate_dictionary()
        .map_err(|e| format!("extension violates the dictionary: {e}"))?;
    let spilled = spilled
        .into_iter()
        .map(|(rel, t)| (rel, std::sync::Arc::new(t)))
        .collect();
    Ok((db, spilled))
}

/// Runs a parsed command, returning the text to print (and optionally
/// writing the DOT file for `reverse --dot`).
pub fn run(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Help(None) => Ok(USAGE.to_string()),
        Command::Help(Some(msg)) => Err(format!("{msg}\n\n{USAGE}")),
        Command::Example => {
            let result = dbre_core::example::run_paper_example();
            Ok(render_result(&result, false))
        }
        Command::Extract(args) => {
            let reverse = ReverseArgs {
                schema: args.schema.clone(),
                oracle: "auto".into(),
                ..Default::default()
            };
            let db = load_database(&reverse)?;
            let programs = load_programs(&args.programs)?;
            let extraction = dbre_extract::extract_programs(
                &db.schema,
                &programs,
                &dbre_extract::ExtractConfig::default(),
            );
            let mut out = String::new();
            let _ = writeln!(out, "# Q — extracted equi-joins\n");
            for j in &extraction.joins {
                let provenance: Vec<&str> =
                    j.provenance.iter().map(|p| p.program.as_str()).collect();
                let _ = writeln!(
                    out,
                    "{:<55} [{}]",
                    j.join.render(&db.schema),
                    provenance.join(", ")
                );
            }
            for w in &extraction.warnings {
                let _ = writeln!(out, "warning: {w}");
            }
            Ok(out)
        }
        Command::Reverse(args) => {
            let (db, spilled) = load_inputs(args)?;
            let programs = load_programs(&args.programs)?;
            let mut options = PipelineOptions {
                infer_missing_keys: args.infer_keys,
                ..Default::default()
            };
            if let Some(choice) = dbre_core::BackendChoice::parse(&args.backend) {
                options.backend = choice;
            } else if !spilled.is_empty() {
                // `--spill-dir` without an explicit `--backend` means
                // paged — streamed extensions only exist there.
                options.backend = dbre_core::BackendChoice::Paged;
            }
            options.spilled = spilled;
            options.page_cache = args.page_cache.map(|mib| mib.saturating_mul(MIB));
            if let Some(n) = args.sessions {
                return run_service_bench(db, &programs, &options, args, n);
            }
            let mut auto;
            let mut deny;
            let oracle: &mut dyn Oracle = if args.oracle == "deny" {
                deny = DenyOracle;
                &mut deny
            } else {
                auto = AutoOracle::default();
                &mut auto
            };
            let result = run_with_programs(db, &programs, oracle, &options);
            if let Some(dot_path) = &args.dot {
                std::fs::write(dot_path, result.eer.render_dot())
                    .map_err(|e| format!("cannot write {}: {e}", dot_path.display()))?;
            }
            Ok(render_result(&result, args.quiet))
        }
    }
}

/// `--sessions N`: one serial reference run, then `n` concurrent
/// sessions over a shared snapshot and engine, rendered as the normal
/// findings (identical across sessions by construction — and checked)
/// plus a throughput/latency section.
fn run_service_bench(
    db: dbre_relational::Database,
    programs: &[ProgramSource],
    options: &PipelineOptions,
    args: &ReverseArgs,
    n: usize,
) -> Result<String, String> {
    use dbre_core::service::{run_service, shared_engine};

    if !options.spilled.is_empty() {
        return Err("--sessions (service mode) needs materialized extensions; \
                    drop --spill-dir and --backend paged"
            .into());
    }
    let extraction = dbre_extract::extract_programs(&db.schema, programs, &options.extract);
    let q = extraction.q();

    // Serial reference: the determinism gate below compares every
    // concurrent session's log against this run.
    let serial = {
        let mut auto;
        let mut deny;
        let oracle: &mut dyn Oracle = if args.oracle == "deny" {
            deny = DenyOracle;
            &mut deny
        } else {
            auto = AutoOracle::default();
            &mut auto
        };
        dbre_core::pipeline::run_with_q(db.clone(), &q, oracle, options)
    };
    if let Some(dot_path) = &args.dot {
        std::fs::write(dot_path, serial.eer.render_dot())
            .map_err(|e| format!("cannot write {}: {e}", dot_path.display()))?;
    }

    let snapshot = dbre_relational::DbSnapshot::new(db);
    let engine = shared_engine(options);
    let report = if args.oracle == "deny" {
        run_service(&snapshot, &engine, &q, options, n, |_| DenyOracle)
    } else {
        run_service(&snapshot, &engine, &q, options, n, |_| {
            AutoOracle::default()
        })
    };

    let mut out = render_result(&serial, args.quiet);
    let _ = writeln!(out, "\n# Service bench\n");
    let _ = writeln!(out, "sessions                 {n}");
    let _ = writeln!(
        out,
        "wall time            {:>9.3} ms",
        report.wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "throughput           {:>9.1} sessions/sec",
        report.sessions_per_sec()
    );
    match report.presumption_percentiles() {
        Some((p50, p99)) => {
            let _ = writeln!(
                out,
                "presumption latency  p50 {:.1} us, p99 {:.1} us",
                p50.as_secs_f64() * 1e6,
                p99.as_secs_f64() * 1e6
            );
        }
        None => {
            let _ = writeln!(out, "presumption latency  (oracle never consulted)");
        }
    }
    let agree = report.logs_identical()
        && report
            .outcomes
            .first()
            .is_none_or(|o| o.result.log == serial.log);
    let _ = writeln!(
        out,
        "log agreement        {}",
        if agree {
            "all session logs byte-identical to the serial run"
        } else {
            "DIVERGED — concurrent sessions disagree with the serial run"
        }
    );
    if !agree {
        return Err(out);
    }
    Ok(out)
}

fn render_result(result: &dbre_core::pipeline::PipelineResult, quiet: bool) -> String {
    let mut out = String::new();
    if !result.provenance.is_empty() {
        let _ = writeln!(out, "# Q — navigations found in the programs\n");
        for (join, provenance) in &result.provenance {
            let programs: Vec<&str> = provenance.iter().map(|p| p.program.as_str()).collect();
            let _ = writeln!(
                out,
                "{:<55} [{}]",
                join.render(&result.db_before.schema),
                programs.join(", ")
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "# Elicited inclusion dependencies\n");
    let _ = writeln!(out, "{}", render_inds(&result.db_before, &result.ind.inds));
    let _ = writeln!(out, "\n# Elicited functional dependencies\n");
    let _ = writeln!(out, "{}", render_fds(&result.db_before, &result.rhs.fds));
    let _ = writeln!(out, "\n# Restructured schema (3NF)\n");
    let _ = writeln!(out, "{}", render_schema(&result.db));
    let _ = writeln!(out, "\n# Referential integrity constraints\n");
    let _ = writeln!(out, "{}", render_inds(&result.db, &result.restructured.ric));
    let _ = writeln!(out, "\n# EER schema\n");
    let _ = writeln!(out, "{}", result.eer.render_text());
    if !result.stage_errors.is_empty() {
        let _ = writeln!(out, "\n# Degraded stages\n");
        for se in &result.stage_errors {
            let _ = writeln!(out, "{se}");
        }
        let _ = writeln!(
            out,
            "\nThe outputs above are partial: each degraded stage fell back to an empty result."
        );
    }
    for w in &result.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    let x = &result.stats.backend_exec;
    if x.fallback_failures > 0 {
        // A probe that failed to execute was silently served by the
        // reference fallback — the counts are right, but the backend
        // under test was not the one answering. Degraded-stage loud.
        let _ = writeln!(
            out,
            "warning: backend `{}` degraded: {} probe(s) failed to execute and fell \
             back to the reference computation",
            result.stats.backend, x.fallback_failures
        );
    }
    let _ = writeln!(out, "\n# Pipeline statistics\n");
    let c = &result.stats.counters;
    let _ = writeln!(
        out,
        "counting engine: backend `{}`, {} cache hits, {} misses, {} rows scanned",
        result.stats.backend, c.cache_hits, c.cache_misses, c.rows_scanned
    );
    if x.batch_ops + x.tuple_fallback_ops > 0 {
        let _ = writeln!(
            out,
            "sql executor: {} batch ops, {} tuple fallbacks",
            x.batch_ops, x.tuple_fallback_ops
        );
    }
    let p = &result.stats.page_cache;
    // Unary counts are served straight from dictionary metadata, so a
    // tiny paged run can legitimately finish without touching a page —
    // still print the line whenever the paged backend ran.
    if result.stats.backend == "paged" || p.hits + p.misses > 0 {
        let _ = writeln!(
            out,
            "page cache: {} hits, {} misses, {} evictions",
            p.hits, p.misses, p.evictions
        );
    }
    let sc = &result.stats.spill_cache;
    if sc.hits + sc.misses > 0 {
        // A hit means the table loaded from a committed `--spill-dir`
        // entry without re-encoding its source.
        let _ = writeln!(out, "spill cache: {} hits, {} misses", sc.hits, sc.misses);
    }
    let sk = &result.stats.sketch;
    if sk.active() {
        let _ = writeln!(
            out,
            "sketch shortcuts: {} candidates, {} pruned, {} exactly verified",
            sk.candidates, sk.pruned, sk.verified
        );
    }
    for (stage, t) in &result.stats.stage_timings {
        let _ = writeln!(out, "{stage:<14} {:>9.3} ms", t.as_secs_f64() * 1e3);
    }
    if !quiet {
        let _ = writeln!(out, "\n# Decision log\n");
        let _ = writeln!(out, "{}", render_log(&result.log));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_reverse_full() {
        let cmd = parse_args(&s(&[
            "reverse",
            "--schema",
            "ddl.sql",
            "--data",
            "rows.sql",
            "--csv",
            "Person=p.csv",
            "--programs",
            "progs/",
            "--oracle",
            "deny",
            "--backend",
            "reference",
            "--spill-dir",
            "cache/",
            "--infer-keys",
            "--dot",
            "out.dot",
            "--quiet",
        ]));
        let Command::Reverse(a) = cmd else {
            panic!("{cmd:?}")
        };
        assert_eq!(a.schema, PathBuf::from("ddl.sql"));
        assert_eq!(a.data, Some(PathBuf::from("rows.sql")));
        assert_eq!(a.csv, vec![("Person".into(), PathBuf::from("p.csv"))]);
        assert_eq!(a.oracle, "deny");
        assert_eq!(a.backend, "reference");
        assert_eq!(a.spill_dir, Some(PathBuf::from("cache/")));
        assert!(a.infer_keys);
        assert!(a.quiet);
    }

    #[test]
    fn parse_errors_are_help() {
        assert!(matches!(
            parse_args(&s(&["reverse"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(&s(&["reverse", "--schema"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(&s(&["reverse", "--schema", "x", "--oracle", "wat"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(&s(&["reverse", "--schema", "x", "--csv", "nopath"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(&s(&["reverse", "--schema", "x", "--backend", "postgres"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(&s(&["reverse", "--schema", "x", "--page-cache", "0"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(&s(&["reverse", "--schema", "x", "--page-cache", "lots"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(&s(&["reverse", "--schema", "x", "--spill-dir"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(&s(&["reverse", "--schema", "x", "--sketch", "on"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(&s(&["frobnicate"])),
            Command::Help(Some(_))
        ));
        assert!(matches!(parse_args(&s(&[])), Command::Help(None)));
        assert!(matches!(parse_args(&s(&["example"])), Command::Example));
    }

    /// A `--page-cache` count whose byte size overflows `usize` is
    /// refused with the usual error, not wrapped to a one-page pool.
    #[test]
    fn page_cache_byte_size_must_fit_usize() {
        let parse = |mib: usize| {
            let mib = mib.to_string();
            parse_args(&s(&["reverse", "--schema", "x", "--page-cache", &mib]))
        };
        match parse(usize::MAX / MIB + 1) {
            Command::Help(Some(message)) => assert!(
                message.contains("--page-cache expects a positive MiB count"),
                "{message}"
            ),
            other => panic!("an overflowing --page-cache must be refused, got {other:?}"),
        }
        match parse(usize::MAX / MIB) {
            Command::Reverse(args) => assert_eq!(args.page_cache, Some(usize::MAX / MIB)),
            other => panic!("the largest representable count is accepted, got {other:?}"),
        }
    }

    #[test]
    fn example_command_runs() {
        let out = run(&Command::Example).unwrap();
        assert!(out.contains("Manager[proj] << Project[proj]"));
        assert!(out.contains("Assignment [relationship]"));
        assert!(out.contains("# Pipeline statistics"));
        assert!(out.contains("counting engine: backend `"));
        assert!(out.contains("ind-discovery"));
    }

    #[test]
    fn reverse_honors_backend_flag() {
        let dir = std::env::temp_dir().join(format!("dbre_cli_backend_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("schema.sql"),
            "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30));
             INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob');
             INSERT INTO Orders VALUES (10, 1, 'ann'), (11, 2, 'bob');",
        )
        .unwrap();
        let mut outputs = Vec::new();
        for backend in ["reference", "encoded", "sql", "paged"] {
            let mut argv = s(&[
                "reverse",
                "--schema",
                dir.join("schema.sql").to_str().unwrap(),
                "--backend",
                backend,
                "--quiet",
            ]);
            if backend == "paged" {
                // Exercise the pool-capacity flag on the run that has
                // a pool to size.
                argv.extend(s(&["--page-cache", "1"]));
            }
            let cmd = parse_args(&argv);
            let out = run(&cmd).unwrap();
            assert!(
                out.contains(&format!("counting engine: backend `{backend}`")),
                "{out}"
            );
            if backend == "paged" {
                assert!(out.contains("page cache: "), "paged stats line: {out}");
            }
            // The backend must not change what is discovered: strip
            // the statistics block before comparing.
            let findings = out
                .split("# Pipeline statistics")
                .next()
                .unwrap()
                .to_string();
            outputs.push(findings);
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_on_temp_files() {
        let dir = std::env::temp_dir().join(format!("dbre_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("programs")).unwrap();
        std::fs::write(
            dir.join("schema.sql"),
            "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30));",
        )
        .unwrap();
        std::fs::write(dir.join("customer.csv"), "cid,cname\n1,ann\n2,bob\n3,cid\n").unwrap();
        std::fs::write(
            dir.join("orders.csv"),
            "oid,cust,cname\n10,1,ann\n11,1,ann\n12,2,bob\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("programs").join("report.sql"),
            "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
        )
        .unwrap();
        let dot = dir.join("out.dot");
        let cmd = parse_args(&s(&[
            "reverse",
            "--schema",
            dir.join("schema.sql").to_str().unwrap(),
            "--csv",
            &format!("Customer={}", dir.join("customer.csv").display()),
            "--csv",
            &format!("Orders={}", dir.join("orders.csv").display()),
            "--programs",
            dir.join("programs").to_str().unwrap(),
            "--dot",
            dot.to_str().unwrap(),
        ]));
        let out = run(&cmd).unwrap();
        assert!(out.contains("Orders[cust] << Customer[cid]"), "{out}");
        assert!(out.contains("Orders: cust -> cname"));
        let dot_text = std::fs::read_to_string(&dot).unwrap();
        assert!(dot_text.starts_with("digraph eer {"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sketch_shortcuts_are_observable_and_inert() {
        let dir = std::env::temp_dir().join(format!("dbre_cli_sketch_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("programs")).unwrap();
        std::fs::write(
            dir.join("schema.sql"),
            "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30));
             INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob');
             INSERT INTO Orders VALUES (10, 1, 'ann'), (11, 2, 'bob');",
        )
        .unwrap();
        std::fs::write(
            dir.join("programs").join("report.sql"),
            "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
        )
        .unwrap();
        let mut findings = Vec::new();
        // The encoded backend serves exact column counts; the reference
        // backend serves none and answers every candidate with a probe.
        for backend in ["encoded", "reference"] {
            let cmd = parse_args(&s(&[
                "reverse",
                "--schema",
                dir.join("schema.sql").to_str().unwrap(),
                "--programs",
                dir.join("programs").to_str().unwrap(),
                "--backend",
                backend,
                "--quiet",
            ]));
            let out = run(&cmd).unwrap();
            assert_eq!(
                out.contains("sketch shortcuts: "),
                backend == "encoded",
                "backend {backend}: {out}"
            );
            findings.push(
                out.split("# Pipeline statistics")
                    .next()
                    .unwrap()
                    .to_string(),
            );
        }
        // Shortcut and probe-only runs report identical findings.
        assert_eq!(findings[0], findings[1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sessions_flag_parses_and_rejects_junk() {
        let cmd = parse_args(&s(&["reverse", "--schema", "a.sql", "--sessions", "4"]));
        match cmd {
            Command::Reverse(args) => assert_eq!(args.sessions, Some(4)),
            other => panic!("{other:?}"),
        }
        for bad in ["0", "-1", "many"] {
            let cmd = parse_args(&s(&["reverse", "--schema", "a.sql", "--sessions", bad]));
            assert!(
                matches!(&cmd, Command::Help(Some(msg)) if msg.contains("--sessions")),
                "{cmd:?}"
            );
        }
    }

    #[test]
    fn sessions_flag_runs_service_bench() {
        let dir = std::env::temp_dir().join(format!("dbre_cli_svc_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("programs")).unwrap();
        std::fs::write(
            dir.join("schema.sql"),
            "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30));
             INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob'), (3, 'cid');
             INSERT INTO Orders VALUES (10, 1, 'ann'), (11, 1, 'ann'), (12, 2, 'bob');",
        )
        .unwrap();
        std::fs::write(
            dir.join("programs").join("report.sql"),
            "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
        )
        .unwrap();
        let cmd = parse_args(&s(&[
            "reverse",
            "--schema",
            dir.join("schema.sql").to_str().unwrap(),
            "--programs",
            dir.join("programs").to_str().unwrap(),
            "--sessions",
            "2",
        ]));
        let out = run(&cmd).unwrap();
        // Findings render once (the serial reference)…
        assert!(out.contains("Orders[cust] << Customer[cid]"), "{out}");
        assert!(out.contains("Orders: cust -> cname"), "{out}");
        // …and the bench section gates on determinism.
        assert!(out.contains("# Service bench"), "{out}");
        assert!(out.contains("sessions                 2"), "{out}");
        assert!(out.contains("sessions/sec"), "{out}");
        assert!(out.contains("byte-identical to the serial run"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sessions_flag_refuses_spilled_extensions() {
        let dir = std::env::temp_dir().join(format!("dbre_cli_svc_spill_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("schema.sql"),
            "CREATE TABLE T (a INT UNIQUE, b INT);",
        )
        .unwrap();
        std::fs::write(dir.join("t.csv"), "a,b\n1,2\n3,4\n").unwrap();
        // Both ways in to streamed extensions are refused, by name.
        let spill = dir.join("spill");
        for streaming in [
            ["--spill-dir", spill.to_str().unwrap()],
            ["--backend", "paged"],
        ] {
            let mut argv = s(&[
                "reverse",
                "--schema",
                dir.join("schema.sql").to_str().unwrap(),
                "--csv",
                &format!("T={}", dir.join("t.csv").display()),
                "--sessions",
                "2",
            ]);
            argv.extend(s(&streaming));
            let err = run(&parse_args(&argv)).unwrap_err();
            assert!(err.contains("materialized"), "{err}");
            assert!(err.contains("--spill-dir and --backend paged"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_dir_streams_reruns_warm_and_matches_materialized() {
        let dir = std::env::temp_dir().join(format!("dbre_cli_spill_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("schema.sql"),
            "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30));",
        )
        .unwrap();
        std::fs::write(dir.join("customer.csv"), "cid,cname\n1,ann\n2,bob\n").unwrap();
        std::fs::write(
            dir.join("orders.csv"),
            "oid,cust,cname\n10,1,ann\n11,1,ann\n12,2,bob\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("report.sql"),
            "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
        )
        .unwrap();
        let argv = |spill: bool| {
            let mut v = s(&[
                "reverse",
                "--schema",
                dir.join("schema.sql").to_str().unwrap(),
                "--csv",
                &format!("Customer={}", dir.join("customer.csv").display()),
                "--csv",
                &format!("Orders={}", dir.join("orders.csv").display()),
                "--programs",
                dir.join("report.sql").to_str().unwrap(),
                "--quiet",
            ]);
            if spill {
                v.extend(s(&["--spill-dir", dir.join("cache").to_str().unwrap()]));
            }
            v
        };
        let findings = |out: &str| {
            out.split("# Pipeline statistics")
                .next()
                .unwrap()
                .to_string()
        };

        let materialized = run(&parse_args(&argv(false))).unwrap();
        // `--backend paged` streams to temporary spill files.
        let mut paged_argv = argv(false);
        paged_argv.extend(s(&["--backend", "paged"]));
        let paged = run(&parse_args(&paged_argv)).unwrap();
        assert!(paged.contains("spill cache: 0 hits, 2 misses"), "{paged}");
        assert_eq!(findings(&paged), findings(&materialized));
        let cold = run(&parse_args(&argv(true))).unwrap();
        assert!(cold.contains("counting engine: backend `paged`"), "{cold}");
        assert!(cold.contains("spill cache: 0 hits, 2 misses"), "{cold}");
        // Warm rerun: both tables load from the committed entries.
        let warm = run(&parse_args(&argv(true))).unwrap();
        assert!(warm.contains("spill cache: 2 hits, 0 misses"), "{warm}");
        // Same discoveries regardless of the ingest path.
        assert_eq!(findings(&cold), findings(&warm));
        assert_eq!(findings(&cold), findings(&materialized));
        assert!(cold.contains("Orders: cust -> cname"), "{cold}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_produce_errors_not_panics() {
        let cmd = parse_args(&s(&["reverse", "--schema", "/nonexistent/x.sql"]));
        assert!(run(&cmd).is_err());
        let cmd = parse_args(&s(&["extract", "--schema", "/nonexistent/x.sql"]));
        assert!(run(&cmd).is_err());
    }

    #[test]
    fn degraded_run_renders_stage_errors() {
        let mut cat = dbre_sql::Catalog::new();
        cat.load_script(
            "CREATE TABLE Customer (cid INT UNIQUE, cname VARCHAR(30));
             CREATE TABLE Orders (oid INT UNIQUE, cust INT, cname VARCHAR(30));
             INSERT INTO Customer VALUES (1, 'ann'), (2, 'bob');
             INSERT INTO Orders VALUES (10, 1, 'ann'), (11, 2, 'bob');",
        )
        .unwrap();
        let programs = vec![dbre_extract::ProgramSource::sql(
            "report",
            "SELECT cname FROM Orders o, Customer c WHERE o.cust = c.cid;",
        )];
        let mut oracle = dbre_core::ChaosOracle::with_abort(1, 1.0);
        let result = run_with_programs(
            cat.into_database(),
            &programs,
            &mut oracle,
            &Default::default(),
        );
        assert!(!result.stage_errors.is_empty());
        let out = render_result(&result, true);
        assert!(out.contains("# Degraded stages"), "{out}");
        assert!(out.contains("oracle aborted the session"), "{out}");
        assert!(out.contains("partial"), "{out}");
        // No backtrace-looking content in user-facing output.
        assert!(!out.contains("RUST_BACKTRACE"), "{out}");
    }

    // ---- the loader: every file at once, as if one at a time ---------

    /// The loop `load_with` replaces, kept as its reference: each
    /// `--csv` file imported in order on this thread, then validated.
    fn load_one_at_a_time(
        args: &ReverseArgs,
    ) -> Result<(dbre_relational::Database, SpilledInputs), String> {
        let ddl = std::fs::read_to_string(&args.schema).map_err(|e| e.to_string())?;
        let mut catalog = Catalog::new();
        catalog.load_script(&ddl).map_err(|e| e.to_string())?;
        if let Some(data) = &args.data {
            let inserts = std::fs::read_to_string(data).map_err(|e| e.to_string())?;
            catalog.load_script(&inserts).map_err(|e| e.to_string())?;
        }
        let mut db = catalog.into_database();
        let mut spilled: SpilledInputs = Vec::new();
        let stream = args.spill_dir.is_some() || args.backend == "paged";
        for (table, path) in &args.csv {
            let rel = db
                .rel(table)
                .map_err(|_| format!("--csv names unknown table `{table}`"))?;
            if stream {
                let dir = args.spill_dir.as_deref();
                let t = dbre_relational::csv::import_csv_spilled(&mut db, rel, path, dir)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                spilled.push((rel, std::sync::Arc::new(t)));
            } else {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                dbre_relational::csv::import_csv(&mut db, rel, &text)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        db.validate_dictionary()
            .map_err(|e| format!("extension violates the dictionary: {e}"))?;
        Ok((db, spilled))
    }

    /// Six relations, among them a three-column key, a not-null
    /// column, NULLs, quoted text and a file of several pages; `T5`
    /// also has rows from `data.sql`.
    fn loader_fixture(tag: &str) -> (PathBuf, ReverseArgs) {
        let dir =
            std::env::temp_dir().join(format!("dbre_cli_loader_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("schema.sql"),
            "CREATE TABLE T0 (id INT UNIQUE, name VARCHAR(20), grp INT);
             CREATE TABLE T1 (a INT, b VARCHAR(8), c INT, note VARCHAR(20), UNIQUE (a, b, c));
             CREATE TABLE T2 (k INT UNIQUE, v VARCHAR(20) NOT NULL);
             CREATE TABLE T3 (x INT, y INT);
             CREATE TABLE T4 (w VARCHAR(20));
             CREATE TABLE T5 (p INT, q VARCHAR(20));",
        )
        .unwrap();
        std::fs::write(dir.join("data.sql"), "INSERT INTO T5 VALUES (1, 'first');").unwrap();
        let mut t0 = String::from("id,name,grp\n");
        for i in 0..30_000 {
            t0.push_str(&format!("{i},name-{},{}\n", i % 977, i % 13));
        }
        let mut t1 = String::from("note,a,b,c\n");
        for i in 0..2_000 {
            t1.push_str(&format!("\"n, {i}\",{},b{},{}\n", i % 40, i % 7, i / 280));
        }
        let files = [
            ("T0", t0),
            ("T1", t1),
            ("T2", "k,v\n1,\"\"\n2,\"null\"\n3,x\n".to_string()),
            ("T3", "x,y\n1,\n,2\n1,\n".to_string()),
            ("T4", "w\nnull\n\"\"\nz\n".to_string()),
            ("T5", "q,p\nsecond,2\n".to_string()),
        ];
        let mut args = ReverseArgs {
            schema: dir.join("schema.sql"),
            data: Some(dir.join("data.sql")),
            oracle: "auto".into(),
            ..Default::default()
        };
        for (table, text) in files {
            let path = dir.join(format!("{table}.csv"));
            std::fs::write(&path, text).unwrap();
            args.csv.push((table.to_string(), path));
        }
        (dir, args)
    }

    /// `a` and `b` hold the same tables: every column's codes,
    /// dictionary in code order, counts and NULLs, with the same
    /// constraints, and generation tags in the same relative order.
    fn assert_same_load(a: &dbre_relational::Database, b: &dbre_relational::Database) {
        assert_eq!(a.constraints, b.constraints);
        for (rel, relation) in a.schema.iter() {
            let (ta, tb) = (a.table(rel), b.table(rel));
            assert_eq!(ta.len(), tb.len(), "{}", relation.name);
            for i in 0..relation.arity() {
                let attr = dbre_relational::AttrId(i as u16);
                let (ca, cb) = (ta.column(attr), tb.column(attr));
                let at = format!("{}.{}", relation.name, relation.attr_name(attr));
                assert_eq!(ca.codes(), cb.codes(), "{at}");
                assert_eq!(ca.distinct_values(), cb.distinct_values(), "{at}");
                assert_eq!(ca.code_counts(), cb.code_counts(), "{at}");
                assert_eq!(ca.null_count(), cb.null_count(), "{at}");
                assert_eq!(ca.pages().is_some(), cb.pages().is_some(), "{at}");
            }
        }
        let order = |db: &dbre_relational::Database| {
            let mut rels: Vec<_> = db.schema.iter().map(|(rel, _)| rel).collect();
            rels.sort_by_key(|&rel| db.generation(rel));
            rels
        };
        assert_eq!(order(a), order(b));
    }

    /// Every file under `a` has a twin of the same bytes under `b`,
    /// and the other way round.
    fn assert_same_tree(a: &Path, b: &Path) {
        fn files(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
            let mut out = Vec::new();
            let mut dirs = vec![root.to_path_buf()];
            while let Some(dir) = dirs.pop() {
                for entry in std::fs::read_dir(&dir).unwrap() {
                    let path = entry.unwrap().path();
                    if path.is_dir() {
                        dirs.push(path);
                    } else {
                        let bytes = std::fs::read(&path).unwrap();
                        out.push((path.strip_prefix(root).unwrap().to_path_buf(), bytes));
                    }
                }
            }
            out.sort();
            out
        }
        let (fa, fb) = (files(a), files(b));
        assert!(!fa.is_empty());
        assert_eq!(fa, fb);
    }

    #[test]
    fn loading_on_workers_matches_one_file_at_a_time() {
        let (dir, args) = loader_fixture("same");
        for workers in [1, 3] {
            // Resident: `T5` keeps its `--data` row above the file's.
            let (reference, _) = load_one_at_a_time(&args).unwrap();
            let (db, spilled) = load_with(&args, Some(workers)).unwrap();
            assert!(spilled.is_empty());
            assert_same_load(&db, &reference);
            let t5 = db.rel("T5").unwrap();
            assert_eq!(db.table(t5).len(), 2);

            // Streamed into a fresh spill dir each, without `--data`
            // (a streamed relation must start empty).
            let streamed = |spill: &str| ReverseArgs {
                data: None,
                spill_dir: Some(dir.join(format!("{spill}-{workers}"))),
                ..args.clone()
            };
            let (reference, reference_spilled) =
                load_one_at_a_time(&streamed("one-at-a-time")).unwrap();
            let (db, spilled) = load_with(&streamed("workers"), Some(workers)).unwrap();
            assert_same_load(&db, &reference);
            let rels = |s: &SpilledInputs| s.iter().map(|(rel, _)| *rel).collect::<Vec<_>>();
            assert_eq!(rels(&spilled), rels(&reference_spilled));
            assert!(spilled.iter().all(|(_, t)| !t.from_cache()));
            assert_same_tree(
                &dir.join(format!("one-at-a-time-{workers}")),
                &dir.join(format!("workers-{workers}")),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_first_bad_file_in_csv_order_is_reported() {
        let (dir, mut args) = loader_fixture("bad");
        args.data = None;
        // `T0`'s error is on its last line, several pages in; `T3`'s
        // on its first: on three workers `T3` fails first.
        let mut t0 = std::fs::read_to_string(&args.csv[0].1).unwrap();
        t0.push_str("1,2\n");
        std::fs::write(&args.csv[0].1, t0).unwrap();
        std::fs::write(&args.csv[3].1, "x,y\nnot-an-int,1\n").unwrap();
        for spill in [None, Some(dir.join("spill"))] {
            let mut args = ReverseArgs {
                spill_dir: spill,
                ..args.clone()
            };
            let expected = load_one_at_a_time(&args).unwrap_err();
            assert!(expected.contains("T0.csv"), "{expected}");
            for workers in [1, 3] {
                assert_eq!(load_with(&args, Some(workers)).unwrap_err(), expected);
            }
            // The other way round, `T3` is the one reported.
            args.csv.swap(0, 3);
            let expected = load_one_at_a_time(&args).unwrap_err();
            assert!(expected.contains("T3.csv"), "{expected}");
            for workers in [1, 3] {
                assert_eq!(load_with(&args, Some(workers)).unwrap_err(), expected);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_files_and_unknown_tables_fail_as_before() {
        let (dir, mut args) = loader_fixture("missing");
        args.data = None;
        let check = |args: &ReverseArgs, needle: &str| {
            let expected = load_one_at_a_time(args).unwrap_err();
            assert!(expected.contains(needle), "{expected}");
            for workers in [1, 3] {
                assert_eq!(load_with(args, Some(workers)).unwrap_err(), expected);
            }
        };
        let (t2, missing) = (args.csv[2].1.clone(), dir.join("missing.csv"));
        for spill in [None, Some(dir.join("spill"))] {
            let mut args = ReverseArgs {
                spill_dir: spill,
                ..args.clone()
            };
            // A missing file among good ones.
            args.csv[2].1 = missing.clone();
            check(&args, "missing.csv");
            // An unknown table after a bad file, and before one.
            args.csv.insert(4, ("Nope".into(), t2.clone()));
            check(&args, "missing.csv");
            args.csv[2].1 = t2.clone();
            check(&args, "unknown table `Nope`");
        }
        // Not UTF-8: the resident error is `read_to_string`'s, even
        // where a malformed record comes first.
        args.csv.truncate(4);
        for text in [&b"x,y\n1,2\n\xff,3\n"[..], b"x,y\n1\n2,\xff\n"] {
            std::fs::write(&args.csv[3].1, text).unwrap();
            check(&args, "cannot read");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_relation_named_twice_loads_as_before() {
        let (dir, mut args) = loader_fixture("twice");
        let again = dir.join("T5-again.csv");
        std::fs::write(&again, "p,q\n3,third\n4,\n").unwrap();
        args.csv.push(("T5".into(), again));
        args.csv.swap(5, 2);
        // Resident: `T5` takes the `--data` row, then each file's in
        // `--csv` order.
        let (reference, _) = load_one_at_a_time(&args).unwrap();
        for workers in [1, 3] {
            let (db, _) = load_with(&args, Some(workers)).unwrap();
            assert_same_load(&db, &reference);
            let t5 = db.rel("T5").unwrap();
            let p: Vec<_> = db
                .table(t5)
                .values(dbre_relational::AttrId(0))
                .cloned()
                .collect();
            let int = dbre_relational::Value::Int;
            assert_eq!(p, [int(1), int(2), int(3), int(4)]);
        }
        // Streamed: the relation holds the `--data` row, and without
        // it the second file's rows are refused.
        for data in [Some(dir.join("data.sql")), None] {
            let args = ReverseArgs {
                data,
                backend: "paged".into(),
                ..args.clone()
            };
            let expected = load_one_at_a_time(&args).unwrap_err();
            assert!(
                expected.contains("streaming ingest needs an empty relation"),
                "{expected}"
            );
            for workers in [1, 3] {
                assert_eq!(load_with(&args, Some(workers)).unwrap_err(), expected);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
