//! `dbre-e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Optional: `--work DIR` (scratch space), `--out DIR` (where a traced
//! run writes its trace and layer table; default the scratch space).
//!
//! Prints notes on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Exits 1 when any dialogue fails a check, 2 on a usage or
//! set-up error.

use dbre_e2ebench::bench::{per_layer, run, Config, END_TO_END};
use dbre_e2ebench::workload::{write_inputs, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut rest: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "--workload must be one of {}, got `{value}`",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(parse_num::<u64>(flag, value)?),
            _ => rest.push((flag, value)),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut cfg = Config::new(workload, seed.ok_or("--seed is required")?);
    for (flag, value) in rest {
        match flag {
            "--seconds" => cfg.seconds = parse_num::<f64>(flag, value)?,
            "--trace" => {
                cfg.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            "--work" => cfg.work = PathBuf::from(value),
            "--out" => cfg.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cfg)
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a number, got `{value}`"))
}

/// The command that writes a run's input files in a child process:
/// this program with the run's workload and seed plus `--generate`,
/// which the caller follows with the target directory.
fn generator(cfg: &Config) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .arg("--generate");
    Ok(cmd)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Child mode: `… --generate DIR` writes the input files and exits.
    let generate_into = match args.iter().position(|a| a == "--generate") {
        Some(i) if i + 2 == args.len() => {
            let dir = args.remove(i + 1);
            args.remove(i);
            Some(PathBuf::from(dir))
        }
        _ => None,
    };
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = generate_into {
        return match write_inputs(cfg.workload, cfg.scale, cfg.seed, &dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut report = match generator(&cfg).and_then(|g| run(&cfg, g)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Keep exactly the metrics of the requested kind.
    let wanted: Vec<String> = if cfg.trace {
        per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    report.metrics.retain(|name, _| wanted.contains(name));
    for name in &wanted {
        if !report.metrics.contains_key(name) {
            eprintln!("error: metric `{name}` was not measured");
            return ExitCode::from(2);
        }
    }
    for note in &report.notes {
        eprintln!("{note}");
    }
    for (name, (value, unit)) in &report.metrics {
        eprintln!("{name:<32} {value:>14.4} {unit}");
    }
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", report.json());
    if report.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
