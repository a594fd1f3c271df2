//! Regenerates every experiment of `EXPERIMENTS.md`.
//!
//! ```text
//! report                # all experiments
//! report e3 x1 x3       # a subset
//! ```
//!
//! E1–E6 reproduce the paper's §5–§7 walk-through, F1 its Figure 1;
//! X1–X5 are the quantitative evaluation the paper omitted (see
//! DESIGN.md for the experiment index).

use dbre_bench::{run_deny, run_truth, scenario, scenario_with, Scenario};
use dbre_core::example::{
    paper_database, paper_oracle, paper_programs, paper_q, run_paper_example, PAPER_DDL,
};
use dbre_core::oracle::NeiDecision;
use dbre_core::pipeline::{run_with_programs, PipelineOptions};
use dbre_core::render::{render_fds, render_inds, render_log, render_quals, render_schema};
use dbre_core::rhs_discovery::RhsOptions;
use dbre_core::{AutoOracle, DenyOracle};
use dbre_mine::spider::{spider, SpiderConfig};
use dbre_mine::tane::tane;
use dbre_relational::counting::join_stats;
use dbre_synth::{corrupt, evaluate, CorruptionConfig, DenormConfig, TruthOracle};
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    // `--check` (consumed before experiment filtering) makes XB gate
    // the sql backend's pipeline median against the encoded backend's —
    // the CI bench-smoke leg fails when the SQL lowering regresses.
    let check = args.iter().any(|a| a == "--check");
    args.retain(|a| a != "--check");
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);

    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("f1") {
        f1();
    }
    if want("x1") {
        x1();
    }
    if want("x2") {
        x2();
    }
    if want("x3") {
        x3();
    }
    if want("x4") {
        x4();
    }
    if want("x5") {
        x5();
    }
    if want("x6") {
        x6();
    }
    if want("x7") {
        x7();
    }
    if want("x8") {
        x8();
    }
    if want("xb") {
        xb(check);
    } else if check {
        eprintln!("--check has no effect without the xb experiment");
        std::process::exit(2);
    }
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

fn e1() {
    header("E1", "dictionary sets K and N (paper §5)");
    let mut cat = dbre_sql::Catalog::new();
    cat.load_script(PAPER_DDL).expect("paper DDL parses");
    let (k, n) = cat.render_k_n();
    println!("K = {{ {} }}", k.join(", "));
    println!("N = {{ {} }}", n.join(", "));
}

fn e2() {
    header(
        "E2",
        "equi-join set Q extracted from application programs (paper §4/§5)",
    );
    let db = paper_database();
    let extraction = dbre_extract::extract_programs(
        &db.schema,
        &paper_programs(),
        &dbre_extract::ExtractConfig::default(),
    );
    for j in &extraction.joins {
        let provenance: Vec<String> = j.provenance.iter().map(|p| p.program.clone()).collect();
        println!(
            "{:<55} [{}]",
            j.join.render(&db.schema),
            provenance.join(", ")
        );
    }
}

fn e3() {
    header("E3", "IND-Discovery (paper §6.1)");
    let mut db = paper_database();
    let q = paper_q(&db);
    println!("cardinalities per equi-join (N_k, N_l, N_kl):");
    for join in &q {
        let s = join_stats(&db, join);
        println!(
            "  {:<50} {:>5} {:>5} {:>5}",
            join.render(&db.schema),
            s.n_left,
            s.n_right,
            s.n_join
        );
    }
    let mut oracle = paper_oracle();
    let ind = dbre_core::ind_discovery(&mut db, &q, &mut oracle).unwrap();
    println!("elicited IND set:");
    println!("{}", indent(&render_inds(&db, &ind.inds)));
    println!(
        "new relations S: {}",
        ind.new_relations
            .iter()
            .map(|r| db.schema.relation(*r).name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );
}

fn e4() {
    header("E4", "LHS-Discovery (paper §6.2.1)");
    let mut db = paper_database();
    let q = paper_q(&db);
    let mut oracle = paper_oracle();
    let ind = dbre_core::ind_discovery(&mut db, &q, &mut oracle).unwrap();
    let lhs = dbre_core::lhs_discovery(&db, &ind.inds, &ind.new_relations);
    println!("LHS =");
    println!("{}", indent(&render_quals(&db, &lhs.lhs)));
    println!("H =");
    println!("{}", indent(&render_quals(&db, &lhs.hidden)));
}

fn e5() {
    header("E5", "RHS-Discovery (paper §6.2.2)");
    let result = run_paper_example();
    println!("F =");
    println!(
        "{}",
        indent(&render_fds(&result.db_before, &result.rhs.fds))
    );
    println!("H =");
    println!(
        "{}",
        indent(&render_quals(&result.db_before, &result.rhs.hidden))
    );
    println!("given up by the expert:");
    println!(
        "{}",
        indent(&render_quals(&result.db_before, &result.rhs.given_up))
    );
    println!("extension FD checks performed: {}", result.rhs.fd_checks);
}

fn e6() {
    header("E6", "Restruct: 3NF schema + RIC (paper §7)");
    let result = run_paper_example();
    println!("restructured schema (keys _underlined_, not-null !marked):");
    println!("{}", indent(&render_schema(&result.db)));
    println!("RIC =");
    println!(
        "{}",
        indent(&render_inds(&result.db, &result.restructured.ric))
    );
    println!("\ndecision log:");
    println!("{}", indent(&render_log(&result.log)));
}

fn f1() {
    header("F1", "Translate: the EER schema of Figure 1");
    let result = run_paper_example();
    println!("{}", result.eer.render_text());
    println!("--- DOT ---");
    println!("{}", result.eer.render_dot());
}

/// X1: query-guided IND-Discovery vs exhaustive SPIDER mining.
fn x1() {
    header(
        "X1",
        "IND elicitation: query-guided (paper) vs exhaustive SPIDER baseline",
    );
    println!(
        "{:<10} {:>7} {:>9} {:>12} {:>11} {:>12} {:>12}",
        "entities", "rows", "joins|Q|", "paper_ms", "paper_tests", "spider_ms", "spider_cand"
    );
    for &(entities, rows) in &[
        (4usize, 1000usize),
        (8, 1000),
        (16, 1000),
        (8, 10_000),
        (8, 50_000),
    ] {
        let s = scenario(entities, rows, 42);
        let extraction = dbre_extract::extract_programs(
            &s.db.schema,
            &s.programs,
            &dbre_extract::ExtractConfig::default(),
        );
        let q = extraction.q();

        let mut db = s.db.clone();
        let mut oracle = TruthOracle::new(s.truth.clone());
        let t0 = Instant::now();
        let ind = dbre_core::ind_discovery(&mut db, &q, &mut oracle).unwrap();
        let paper_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let sp = spider(&s.db, &SpiderConfig::default());
        let spider_ms = t0.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:<10} {:>7} {:>9} {:>12.2} {:>11} {:>12.2} {:>12}",
            entities,
            rows,
            q.len(),
            paper_ms,
            ind.join_stats.len(),
            spider_ms,
            sp.stats.initial_candidates
        );
    }
    println!("(tests: extension probes issued — the paper's thesis is column 5 << column 7)");
}

/// X2: targeted RHS-Discovery vs full TANE mining.
fn x2() {
    header(
        "X2",
        "FD elicitation: targeted RHS-Discovery (paper) vs full TANE baseline",
    );
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "entities", "rows", "paper_ms", "paper_chk", "paper_fds", "tane_ms", "tane_fds"
    );
    for &(entities, rows) in &[(4usize, 1000usize), (8, 1000), (8, 10_000), (8, 50_000)] {
        let s = scenario(entities, rows, 42);

        let mut db = s.db.clone();
        let q = dbre_extract::extract_programs(
            &db.schema,
            &s.programs,
            &dbre_extract::ExtractConfig::default(),
        )
        .q();
        let mut oracle = TruthOracle::new(s.truth.clone());
        let ind = dbre_core::ind_discovery(&mut db, &q, &mut oracle).unwrap();
        let lhs = dbre_core::lhs_discovery(&db, &ind.inds, &ind.new_relations);
        let t0 = Instant::now();
        let rhs = dbre_core::rhs_discovery(&db, &lhs, &mut oracle, &RhsOptions::default());
        let paper_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let mut tane_fds = 0usize;
        for (rel, _) in s.db.schema.iter() {
            let r = tane(rel, s.db.table(rel), Some(2));
            tane_fds += r.fds.len();
        }
        let tane_ms = t0.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:<10} {:>7} {:>10.2} {:>10} {:>10} {:>10.2} {:>10}",
            entities,
            rows,
            paper_ms,
            rhs.fd_checks,
            rhs.fds.len(),
            tane_ms,
            tane_fds
        );
    }
    println!("(tane_fds counts every minimal FD holding in the data — accidental ones included;");
    println!(" paper_fds are only the navigated, conceptually meaningful dependencies)");
}

/// X3: recovery quality vs program coverage and corruption.
fn x3() {
    header("X3", "recovery quality vs coverage / corruption / oracle");
    println!(
        "{:<9} {:>7} {:<7} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "coverage", "corrupt", "oracle", "ind_R", "fd_R", "fd_P", "hidden", "schemaF1"
    );
    for &coverage in &[0.2, 0.5, 0.8, 1.0] {
        for &noise in &[0.0, 0.02, 0.10] {
            for oracle_kind in ["truth", "auto", "deny"] {
                // Seed 2 drops an entity referenced from three sites,
                // so the hidden-object column actually measures
                // something (a pairwise NEI exists for programs to
                // navigate).
                let denorm = DenormConfig {
                    p_embed: 0.7,
                    p_drop: 0.4,
                    seed: 2,
                };
                let mut s: Scenario = scenario_with(8, 500, 2, coverage, &denorm);
                if noise > 0.0 {
                    corrupt(
                        &mut s.db,
                        &s.truth,
                        &CorruptionConfig {
                            fd_noise: noise,
                            ind_noise: noise,
                            seed: 9,
                        },
                    );
                }
                let result = match oracle_kind {
                    "truth" => run_truth(&s),
                    "deny" => run_deny(&s),
                    _ => {
                        let mut o = AutoOracle::default();
                        run_with_programs(
                            s.db.clone(),
                            &s.programs,
                            &mut o,
                            &PipelineOptions::default(),
                        )
                    }
                };
                let q = evaluate(&result, &s.truth, Some(&s.covered));
                println!(
                    "{:<9.2} {:>7.2} {:<7} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>9.3}",
                    coverage,
                    noise,
                    oracle_kind,
                    q.ind.recall,
                    q.fd.recall,
                    q.fd.precision,
                    q.hidden_recovery,
                    q.schema.f1
                );
            }
        }
    }
}

/// X4: ablation of the RHS candidate pruning (paper §6.2.2 step 1).
fn x4() {
    header("X4", "ablation: RHS-Discovery candidate pruning");
    println!("{:<28} {:>10} {:>10}", "variant", "fd_checks", "fds_found");
    for (name, opts) in [
        ("full pruning (paper)", RhsOptions::default()),
        (
            "no key pruning",
            RhsOptions {
                prune_keys: false,
                prune_not_null: true,
            },
        ),
        (
            "no not-null pruning",
            RhsOptions {
                prune_keys: true,
                prune_not_null: false,
            },
        ),
        (
            "no pruning",
            RhsOptions {
                prune_keys: false,
                prune_not_null: false,
            },
        ),
    ] {
        let mut db = paper_database();
        let q = paper_q(&db);
        let mut oracle = paper_oracle();
        let ind = dbre_core::ind_discovery(&mut db, &q, &mut oracle).unwrap();
        let lhs = dbre_core::lhs_discovery(&db, &ind.inds, &ind.new_relations);
        let rhs = dbre_core::rhs_discovery(&db, &lhs, &mut oracle, &opts);
        println!("{:<28} {:>10} {:>10}", name, rhs.fd_checks, rhs.fds.len());
    }
}

/// X5: ablation of NEI handling policies.
fn x5() {
    header("X5", "ablation: NEI resolution policy on the paper example");
    for (name, decision) in [
        ("conceptualize (paper)", NeiDecision::Conceptualize),
        ("force left << right", NeiDecision::ForceLeftInRight),
        ("force right << left", NeiDecision::ForceRightInLeft),
        ("ignore", NeiDecision::Ignore),
    ] {
        let db = paper_database();
        let q = paper_q(&db);
        let mut oracle = dbre_core::ScriptedOracle::new()
            .nei("Assignment[dep] |><| Department[dep]", decision.clone())
            .name("nei:Assignment[dep] |><| Department[dep]", "Ass-Dept")
            .hidden("HEmployee.{no}", true)
            .hidden("Assignment.{emp}", false)
            .hidden("Department.{proj}", false)
            .hidden("Assignment.{dep}", false)
            .hidden("Department.{dep}", false)
            .name("hidden:HEmployee.{no}", "Employee")
            .name("hidden:Assignment.{dep}", "Other-Dept")
            .name("fd:Department: emp -> skill, proj", "Manager")
            .name("fd:Assignment: proj -> project-name", "Project");
        let result = dbre_core::run_with_q(db, &q, &mut oracle, &Default::default());
        println!(
            "{:<24} inds={:>2} ric={:>2} relations={:>2} entities={:>2} relationships={:>2} isa={:>2}",
            name,
            result.ind.inds.len(),
            result.restructured.ric.len(),
            result.db.schema.len(),
            result.eer.entities.len(),
            result.eer.relationships.len(),
            result.eer.isa.len()
        );
    }
    println!("(conceptualize recovers Ass-Dept and both its is-a links; ignore loses the");
    println!(" department-sharing semantics entirely — the paper's warning in §6.1)");

    // Also show DenyOracle end-to-end: the fully automatic floor.
    let db = paper_database();
    let q = paper_q(&db);
    let mut deny = DenyOracle;
    let result = dbre_core::run_with_q(db, &q, &mut deny, &Default::default());
    println!(
        "{:<24} inds={:>2} ric={:>2} relations={:>2} (no expert at all)",
        "deny everything",
        result.ind.inds.len(),
        result.restructured.ric.len(),
        result.db.schema.len()
    );
}

/// X6: composite (n-ary) inclusion dependencies — program extraction
/// vs exhaustive MIND mining.
fn x6() {
    header(
        "X6",
        "composite INDs: one extracted join vs levelwise MIND mining",
    );
    // A composite-key scenario: Enrollment references (Course.dept,
    // Course.num) as a pair; one legacy report joins on both columns.
    let mut cat = dbre_sql::Catalog::new();
    cat.load_script(
        "CREATE TABLE Course (dept CHAR(4), num INT, title VARCHAR(40), UNIQUE(dept, num));
         CREATE TABLE Enrollment (student INT, dept CHAR(4), num INT,
                                  UNIQUE(student, dept, num));",
    )
    .unwrap();
    let mut script = String::new();
    for d in 0..6 {
        for n in 0..40 {
            script.push_str(&format!(
                "INSERT INTO Course VALUES ('D{d}', {n}, 'course {d}-{n}');"
            ));
        }
    }
    for s in 0..300 {
        let d = s % 5; // department D5 never referenced: strict subset
        let n = (s * 7) % 40;
        script.push_str(&format!(
            "INSERT INTO Enrollment VALUES ({s}, 'D{d}', {n});"
        ));
    }
    cat.load_script(&script).unwrap();
    let db = cat.into_database();

    let programs = [dbre_extract::ProgramSource::sql(
        "roster.sql",
        "SELECT c.title FROM Enrollment e, Course c \
         WHERE e.dept = c.dept AND e.num = c.num;",
    )];
    let t0 = Instant::now();
    let extraction = dbre_extract::extract_programs(
        &db.schema,
        &programs,
        &dbre_extract::ExtractConfig::default(),
    );
    let q = extraction.q();
    let mut db2 = db.clone();
    let mut oracle = DenyOracle;
    let ind = dbre_core::ind_discovery(&mut db2, &q, &mut oracle).unwrap();
    let extract_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let mined = dbre_mine::mind(&db, &dbre_mine::SpiderConfig::default(), 2);
    let mind_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!(
        "extraction: {} composite join(s), {} probe(s), {:.2} ms -> {}",
        q.len(),
        ind.join_stats.len(),
        extract_ms,
        ind.inds
            .iter()
            .map(|i| i.render(&db2.schema))
            .collect::<Vec<_>>()
            .join("; ")
    );
    println!(
        "MIND:       {} unary INDs, {} binary candidates, {:.2} ms, maximal: {}",
        mined.stats.unary,
        mined.stats.candidates,
        mind_ms,
        dbre_mine::maximal(&mined)
            .iter()
            .map(|i| i.render(&db.schema))
            .collect::<Vec<_>>()
            .join("; ")
    );
    println!("(the program's WHERE conjunction hands the composite over directly;");
    println!(" blind mining must survive the unary-pair candidate space first)");
}

/// X7: key inference for dictionaries without UNIQUE declarations.
fn x7() {
    header(
        "X7",
        "pre-UNIQUE dictionaries: pipeline with and without key inference",
    );
    // The paper example as an ancient DBMS would hold it: no UNIQUE,
    // no NOT NULL — the dictionary is silent.
    let stripped_ddl = "
        CREATE TABLE Person (id INTEGER, name VARCHAR(40), street VARCHAR(40),
                             number INTEGER, zip-code CHAR(8), state VARCHAR(20));
        CREATE TABLE HEmployee (no INTEGER, date DATE, salary REAL);
        CREATE TABLE Department (dep CHAR(8), emp INTEGER, skill VARCHAR(20),
                                 location VARCHAR(20), proj CHAR(6));
        CREATE TABLE Assignment (emp INTEGER, dep CHAR(8), proj CHAR(6),
                                 date DATE, project-name VARCHAR(30));
    ";

    for infer in [false, true] {
        let mut cat = dbre_sql::Catalog::new();
        cat.load_script(stripped_ddl).expect("stripped DDL parses");
        let mut db = cat.into_database();
        // Extension copied from the canonical example database.
        let full = paper_database();
        for (rel, relation) in full.schema.iter() {
            let target = db.rel(&relation.name).unwrap();
            db.replace_table(target, full.table(rel).clone()).unwrap();
        }
        let q = paper_q(&db);
        let mut oracle = paper_oracle();
        let opts = PipelineOptions {
            infer_missing_keys: infer,
            ..Default::default()
        };
        let result = dbre_core::run_with_q(db, &q, &mut oracle, &opts);
        let inferred = result
            .log
            .iter()
            .filter(|r| r.step == "Key inference")
            .count();
        println!(
            "infer_keys={:<5} inferred={} inds={} fds={} ric={} relations={} isa={}",
            infer,
            inferred,
            result.ind.inds.len(),
            result.rhs.fds.len(),
            result.restructured.ric.len(),
            result.db.schema.len(),
            result.eer.isa.len()
        );
    }
    println!("(a silent dictionary makes every navigated identifier look splittable —");
    println!(" Person is torn apart along id and the schema over-decomposes; key");
    println!(" inference restores the paper's exact §7 outcome: 10 RIC, 9 relations)");
}

/// X8: memoized `‖·‖` counting — repeated-Q statistics through the
/// StatsEngine vs naive rescans, plus the instrumented pipeline run.
fn x8() {
    header(
        "X8",
        "StatsEngine: repeated-Q counting cached vs naive, pipeline instrumentation",
    );
    println!(
        "{:<10} {:>7} {:>5} {:>5} {:>10} {:>10} {:>8} {:>7} {:>7}",
        "entities", "rows", "|Q|", "reps", "naive_ms", "cached_ms", "speedup", "hits", "misses"
    );
    for &(entities, rows) in &[(8usize, 1000usize), (8, 10_000), (8, 50_000)] {
        let s = scenario(entities, rows, 42);
        let q = dbre_extract::extract_programs(
            &s.db.schema,
            &s.programs,
            &dbre_extract::ExtractConfig::default(),
        )
        .q();
        let reps = 25;

        let t0 = Instant::now();
        for _ in 0..reps {
            for join in &q {
                std::hint::black_box(join_stats(&s.db, join));
            }
        }
        let naive_ms = t0.elapsed().as_secs_f64() * 1e3;

        let engine = dbre_relational::StatsEngine::new();
        let t0 = Instant::now();
        for _ in 0..reps {
            for join in &q {
                std::hint::black_box(engine.join_stats(&s.db, join));
            }
        }
        let cached_ms = t0.elapsed().as_secs_f64() * 1e3;
        let c = engine.counters();

        println!(
            "{:<10} {:>7} {:>5} {:>5} {:>10.2} {:>10.2} {:>7.1}x {:>7} {:>7}",
            entities,
            rows,
            q.len(),
            reps,
            naive_ms,
            cached_ms,
            naive_ms / cached_ms.max(1e-9),
            c.cache_hits,
            c.cache_misses
        );
    }

    println!("\ninstrumented pipeline run (8 entities, 10k rows):");
    let s = scenario(8, 10_000, 42);
    let result = run_truth(&s);
    let c = &result.stats.counters;
    println!(
        "  counting engine: {} cache hits, {} misses, {} rows scanned",
        c.cache_hits, c.cache_misses, c.rows_scanned
    );
    for (stage, t) in &result.stats.stage_timings {
        println!("  {stage:<14} {:>9.3} ms", t.as_secs_f64() * 1e3);
    }
    println!("(a repeated navigation costs one hash lookup instead of a table rescan;");
    println!(" the pipeline shares one engine across IND/RHS discovery and key inference)");
}

/// XB: machine-readable cold-kernel benchmark — Value-based reference
/// vs dictionary-encoded kernels — written to `BENCH_report.json` at
/// the repository root (per-bench median ns + engine cache counters).
///
/// With `check`, runs scaled-down rows, writes them to
/// `target/BENCH_report.check.json` instead (the committed report is
/// never overwritten by a smoke run), and exits nonzero if the sql
/// backend's end-to-end pipeline median exceeds 2x the encoded
/// backend's (8 entities, 1k rows): the CI guard that tier-1 lowering
/// keeps carrying the SQL path.
fn xb(check: bool) {
    use dbre_mine::{check_hash, StrippedPartition};
    use dbre_relational::encode::{partition1, ColumnDict};
    use dbre_relational::{AttrId, AttrSet, CountBackend, Fd, StatsEngine};

    header(
        "XB",
        "cold kernels, reference vs encoded -> BENCH_report.json",
    );

    /// Median of `samples` timed runs, in nanoseconds.
    fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
        let mut times: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        times[times.len() / 2]
    }

    let samples = 7;
    let mut benches: Vec<(String, f64)> = Vec::new();

    for &(entities, rows) in &[(8usize, 1000usize), (8, 10_000), (8, 50_000)] {
        let s = scenario(entities, rows, 42);
        let q = dbre_extract::extract_programs(
            &s.db.schema,
            &s.programs,
            &dbre_extract::ExtractConfig::default(),
        )
        .q();
        let tag = format!("e{entities}_r{rows}");

        // Cold ‖·‖ counting over the whole Q.
        benches.push((
            format!("ind_discovery/join_stats_cold_reference/{tag}"),
            median_ns(samples, || {
                for join in &q {
                    std::hint::black_box(join_stats(&s.db, join));
                }
            }),
        ));
        benches.push((
            format!("ind_discovery/join_stats_cold_encoded/{tag}"),
            median_ns(samples, || {
                let engine = StatsEngine::new();
                for join in &q {
                    std::hint::black_box(engine.join_stats(&s.db, join));
                }
            }),
        ));

        // Cold level-1 partition seeding (TANE / key discovery).
        benches.push((
            format!("fd_discovery/unary_partitions_cold_reference/{tag}"),
            median_ns(samples, || {
                for (rel, relation) in s.db.schema.iter() {
                    let table = s.db.table(rel);
                    for i in 0..relation.arity() {
                        std::hint::black_box(StrippedPartition::for_attribute(
                            table,
                            AttrId(i as u16),
                        ));
                    }
                }
            }),
        ));
        benches.push((
            format!("fd_discovery/unary_partitions_cold_encoded/{tag}"),
            median_ns(samples, || {
                for (rel, relation) in s.db.schema.iter() {
                    let table = s.db.table(rel);
                    for i in 0..relation.arity() {
                        let col = ColumnDict::build(table.column(AttrId(i as u16)));
                        std::hint::black_box(
                            partition1(&col, &()).unwrap_or_else(|never| match never {}),
                        );
                    }
                }
            }),
        ));

        // Cold RHS-Discovery probes: `a0 → b` for every other column —
        // the batch shape of §6.2.2, where probes share one LHS. The
        // reference rescans and regroups the table per probe; the cold
        // engine builds the LHS dictionary and grouping once per
        // relation and serves the rest of the batch from cache.
        benches.push((
            format!("fd_discovery/fd_check_cold_reference/{tag}"),
            median_ns(samples, || {
                for (rel, relation) in s.db.schema.iter() {
                    let table = s.db.table(rel);
                    for i in 1..relation.arity() {
                        std::hint::black_box(check_hash(table, &[AttrId(0)], &[AttrId(i as u16)]));
                    }
                }
            }),
        ));
        benches.push((
            format!("fd_discovery/fd_check_cold_encoded/{tag}"),
            median_ns(samples, || {
                let engine = StatsEngine::new();
                for (rel, relation) in s.db.schema.iter() {
                    for i in 1..relation.arity() {
                        let fd = Fd::new(
                            rel,
                            AttrSet::from_indices([0u16]),
                            AttrSet::from_indices([i as u16]),
                        );
                        std::hint::black_box(engine.fd_holds(&s.db, &fd));
                    }
                }
            }),
        ));
    }

    // Per-backend end-to-end pipeline rows: the same run_with_q served
    // by each CountBackend through the one counting seam (small
    // extension — the SQL backend executes every ‖·‖ probe as a real
    // statement, lowered onto the encoded kernels; the paged backend
    // streams spilled code pages through its buffer pool).
    let mut backend_rows: Vec<(&'static str, f64)> = Vec::new();
    let mut paged_cache = dbre_relational::PageCacheStats::default();
    let sp = scenario(8, 1000, 42);
    let qp = dbre_extract::extract_programs(
        &sp.db.schema,
        &sp.programs,
        &dbre_extract::ExtractConfig::default(),
    )
    .q();
    for choice in [
        dbre_core::BackendChoice::Reference,
        dbre_core::BackendChoice::Encoded,
        dbre_core::BackendChoice::Sql,
        dbre_core::BackendChoice::Paged,
    ] {
        let opts = PipelineOptions {
            backend: choice,
            ..Default::default()
        };
        let ns = median_ns(samples, || {
            let mut oracle = AutoOracle::default();
            let r = dbre_core::run_with_q(sp.db.clone(), &qp, &mut oracle, &opts);
            if matches!(choice, dbre_core::BackendChoice::Paged) {
                paged_cache = r.stats.page_cache;
            }
            std::hint::black_box(r);
        });
        benches.push((
            format!("pipeline/run_with_q_{}/e8_r1000", choice.name()),
            ns,
        ));
        backend_rows.push((choice.name(), ns));
    }

    // Out-of-core scaling point: the full pipeline at 8 entities / 1M
    // rows, encoded (in RAM) vs paged (64 MiB default pool), single
    // sample — this is a scaling observation, not a microbenchmark.
    // Skipped under --check to keep the CI smoke leg inside its budget.
    let mut paged_scale: Option<(f64, f64, bool, dbre_relational::PageCacheStats)> = None;
    if !check {
        let s = scenario(8, 1_000_000, 42);
        let q = dbre_extract::extract_programs(
            &s.db.schema,
            &s.programs,
            &dbre_extract::ExtractConfig::default(),
        )
        .q();
        let run = |choice: dbre_core::BackendChoice| {
            let opts = PipelineOptions {
                backend: choice,
                ..Default::default()
            };
            let mut oracle = AutoOracle::default();
            // Clone the 1M-row database before the clock starts: the
            // row times the pipeline, not the copy of its input.
            let db = s.db.clone();
            let t0 = Instant::now();
            let r = dbre_core::run_with_q(db, &q, &mut oracle, &opts);
            (t0.elapsed().as_secs_f64() * 1e3, r)
        };
        let (encoded_ms, enc) = run(dbre_core::BackendChoice::Encoded);
        let (paged_ms, paged) = run(dbre_core::BackendChoice::Paged);
        // The two backends must reach the same reverse-engineered
        // design; streaming over spilled pages may only cost time.
        let agree = render_inds(&enc.db, &enc.ind.inds) == render_inds(&paged.db, &paged.ind.inds)
            && render_fds(&enc.db_before, &enc.rhs.fds)
                == render_fds(&paged.db_before, &paged.rhs.fds)
            && enc.restructured.ric.len() == paged.restructured.ric.len();
        paged_scale = Some((encoded_ms, paged_ms, agree, paged.stats.page_cache));
    }

    // Ingest throughput: the same synthetic CSV through both ingest
    // paths, down to spill pages (median of 3, rows/sec). The
    // streaming path never materializes a Table; the materialized
    // path imports rows then encodes and spills each column.
    let ingest_rows: usize = if check { 20_000 } else { 200_000 };
    let csv_path = std::env::temp_dir().join(format!("dbre-xb-ingest-{}.csv", std::process::id()));
    write_synth_csv(&csv_path, ingest_rows).expect("write ingest CSV");
    let streaming_ns = median_ns(3, || {
        let (mut db, rel) = ingest_db();
        std::hint::black_box(
            dbre_relational::csv::import_csv_spilled(&mut db, rel, &csv_path, None)
                .expect("streaming ingest"),
        );
    });
    let materialized_ns = median_ns(3, || {
        let (mut db, rel) = ingest_db();
        let text = std::fs::read_to_string(&csv_path).expect("read ingest CSV");
        dbre_relational::csv::import_csv(&mut db, rel, &text).expect("materialized import");
        for i in 0..3u16 {
            let dict = ColumnDict::build(db.table(rel).column(AttrId(i)));
            std::hint::black_box(
                dbre_relational::pages::PageFile::spill(dict.codes()).expect("spill"),
            );
        }
    });
    std::fs::remove_file(&csv_path).ok();
    let rows_per_s = |ns: f64| ingest_rows as f64 / (ns / 1e9);
    let ingest = (
        ingest_rows,
        rows_per_s(streaming_ns),
        rows_per_s(materialized_ns),
    );

    // Out-of-core scaling: a 10M-row CSV streamed straight to spill
    // pages (the table never exists in memory), then paged kernels
    // probed over the adopted columns through the default 64 MiB
    // pool. One sample; skipped under --check.
    let mut out_of_core_10m: Option<(usize, f64, f64, dbre_relational::PageCacheStats)> = None;
    if !check {
        use dbre_relational::backend::CountBackend;
        let rows = 10_000_000usize;
        let path = std::env::temp_dir().join(format!("dbre-xb-10m-{}.csv", std::process::id()));
        write_synth_csv(&path, rows).expect("write 10M CSV");
        let (mut db, rel) = ingest_db();
        let t0 = Instant::now();
        let table = dbre_relational::csv::import_csv_spilled(&mut db, rel, &path, None)
            .expect("10M streaming ingest");
        let ingest_s = t0.elapsed().as_secs_f64();
        std::fs::remove_file(&path).ok();
        let backend = dbre_relational::PagedBackend::new();
        backend.adopt_spilled(&db, rel, &table);
        let fd = Fd::new(
            rel,
            AttrSet::from_indices([1u16]),
            AttrSet::from_indices([2u16]),
        );
        let t0 = Instant::now();
        std::hint::black_box(backend.count_distinct(&db, rel, &[AttrId(0), AttrId(1)]));
        std::hint::black_box(backend.fd_holds(&db, &fd));
        let probe_ms = t0.elapsed().as_secs_f64() * 1e3;
        out_of_core_10m = Some((rows, ingest_s, probe_ms, backend.page_stats()));
    }

    // Serial vs chunk-parallel paged scan over one page-resident
    // spilled extension — only measurable when the kernels are built
    // with the `parallel` feature. Skipped under --check.
    #[allow(unused_mut)]
    let mut paged_parallel: Option<(usize, usize, f64, f64)> = None;
    #[cfg(feature = "parallel")]
    if !check {
        use dbre_relational::backend::CountBackend;
        let rows = 2_000_000usize;
        let path = std::env::temp_dir().join(format!("dbre-xb-par-{}.csv", std::process::id()));
        write_synth_csv(&path, rows).expect("write parallel-scan CSV");
        let (mut db, rel) = ingest_db();
        let table = dbre_relational::csv::import_csv_spilled(&mut db, rel, &path, None)
            .expect("parallel-scan ingest");
        std::fs::remove_file(&path).ok();
        let backend = dbre_relational::PagedBackend::new();
        backend.adopt_spilled(&db, rel, &table);
        let fd = Fd::new(
            rel,
            AttrSet::from_indices([1u16]),
            AttrSet::from_indices([2u16]),
        );
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2);
        // Warm the pool so both variants scan resident pages.
        std::env::set_var("DBRE_PAGED_THREADS", "1");
        std::hint::black_box(backend.fd_holds(&db, &fd));
        let serial_ns = median_ns(3, || {
            std::hint::black_box(backend.fd_holds(&db, &fd));
        });
        std::env::set_var("DBRE_PAGED_THREADS", threads.to_string());
        let parallel_ns = median_ns(3, || {
            std::hint::black_box(backend.fd_holds(&db, &fd));
        });
        std::env::remove_var("DBRE_PAGED_THREADS");
        paged_parallel = Some((rows, threads, serial_ns / 1e6, parallel_ns / 1e6));
    }

    // Cache counters from one warm engine pass (8 entities, 10k rows).
    let s = scenario(8, 10_000, 42);
    let q = dbre_extract::extract_programs(
        &s.db.schema,
        &s.programs,
        &dbre_extract::ExtractConfig::default(),
    )
    .q();
    let engine = dbre_relational::StatsEngine::new();
    for _ in 0..2 {
        for join in &q {
            std::hint::black_box(engine.join_stats(&s.db, join));
        }
    }
    let counters = engine.counters();

    // Concurrent service: N sessions over one snapshot and one shared
    // engine (8 entities, 1000 rows) vs a serial reference run.
    // Determinism is part of the measurement — every session's
    // decision log must be byte-identical to the serial run's.
    let service_rows: Vec<(usize, f64, f64, f64, bool)> = {
        use dbre_core::service::{run_service, shared_engine};
        let opts = PipelineOptions::default();
        let mut oracle = AutoOracle::default();
        let serial_log = dbre_core::run_with_q(sp.db.clone(), &qp, &mut oracle, &opts).log;
        let snapshot = dbre_relational::DbSnapshot::new(sp.db.clone());
        [1usize, 8]
            .iter()
            .map(|&n| {
                let engine = shared_engine(&opts);
                let report =
                    run_service(&snapshot, &engine, &qp, &opts, n, |_| AutoOracle::default());
                let (p50, p99) = report.presumption_percentiles().unwrap_or_default();
                let agree = report.logs_identical()
                    && report
                        .outcomes
                        .first()
                        .is_none_or(|o| o.result.log == serial_log);
                (
                    n,
                    report.sessions_per_sec(),
                    p50.as_secs_f64() * 1e9,
                    p99.as_secs_f64() * 1e9,
                    agree,
                )
            })
            .collect()
    };

    // Render (hand-rolled JSON: the workspace carries no serde).
    let mut json = String::from("{\n  \"experiment\": \"xb\",\n  \"unit\": \"ns\",\n");
    json.push_str("  \"benches\": [\n");
    for (i, (id, ns)) in benches.iter().enumerate() {
        let sep = if i + 1 == benches.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"id\": \"{id}\", \"median_ns\": {ns:.0} }}{sep}\n"
        ));
    }
    json.push_str("  ],\n  \"speedups\": [\n");
    let pairs: Vec<(String, f64)> = benches
        .iter()
        .filter(|(id, _)| id.contains("_reference/"))
        .filter_map(|(id, ref_ns)| {
            let enc_id = id.replace("_reference/", "_encoded/");
            benches
                .iter()
                .find(|(other, _)| *other == enc_id)
                .map(|(_, enc_ns)| (enc_id, ref_ns / enc_ns.max(1.0)))
        })
        .collect();
    for (i, (id, ratio)) in pairs.iter().enumerate() {
        let sep = if i + 1 == pairs.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"id\": \"{id}\", \"reference_over_encoded\": {ratio:.2} }}{sep}\n"
        ));
    }
    json.push_str("  ],\n  \"backends\": [\n");
    for (i, (name, ns)) in backend_rows.iter().enumerate() {
        let sep = if i + 1 == backend_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"backend\": \"{name}\", \"pipeline_median_ns\": {ns:.0} }}{sep}\n"
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"page_cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {} }},\n",
        paged_cache.hits, paged_cache.misses, paged_cache.evictions
    ));
    if let Some((encoded_ms, paged_ms, agree, pc)) = &paged_scale {
        json.push_str(&format!(
            "  \"paged_scale\": {{ \"entities\": 8, \"rows\": 1000000, \
             \"encoded_ms\": {encoded_ms:.0}, \"paged_ms\": {paged_ms:.0}, \
             \"agree\": {agree}, \"page_hits\": {}, \"page_misses\": {}, \
             \"page_evictions\": {} }},\n",
            pc.hits, pc.misses, pc.evictions
        ));
    }
    json.push_str(&format!(
        "  \"ingest\": {{ \"rows\": {}, \"streaming_rows_per_s\": {:.0}, \
         \"materialized_rows_per_s\": {:.0} }},\n",
        ingest.0, ingest.1, ingest.2
    ));
    if let Some((rows, ingest_s, probe_ms, pc)) = &out_of_core_10m {
        json.push_str(&format!(
            "  \"out_of_core_10m\": {{ \"rows\": {rows}, \"ingest_s\": {ingest_s:.1}, \
             \"probe_ms\": {probe_ms:.0}, \"page_hits\": {}, \"page_misses\": {}, \
             \"page_evictions\": {} }},\n",
            pc.hits, pc.misses, pc.evictions
        ));
    }
    if let Some((rows, threads, serial_ms, parallel_ms)) = &paged_parallel {
        json.push_str(&format!(
            "  \"paged_parallel\": {{ \"rows\": {rows}, \"threads\": {threads}, \
             \"serial_ms\": {serial_ms:.2}, \"parallel_ms\": {parallel_ms:.2} }},\n"
        ));
    }
    json.push_str("  \"service\": [\n");
    for (i, (n, sps, p50, p99, agree)) in service_rows.iter().enumerate() {
        let sep = if i + 1 == service_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"sessions\": {n}, \"sessions_per_sec\": {sps:.1}, \
             \"p50_ns\": {p50:.0}, \"p99_ns\": {p99:.0}, \"agree\": {agree} }}{sep}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"cache_counters\": {{ \"hits\": {}, \"misses\": {}, \"rows_scanned\": {} }}\n}}\n",
        counters.cache_hits, counters.cache_misses, counters.rows_scanned
    ));

    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let path = if check {
        root.join("target").join("BENCH_report.check.json")
    } else {
        root.join("BENCH_report.json")
    };
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, &json));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
    for (id, ratio) in &pairs {
        println!("  {id:<60} encoded is {ratio:.2}x faster than reference");
    }
    println!("\n  full pipeline (8 entities, 1000 rows), one seam, four backends:");
    for (name, ns) in &backend_rows {
        println!("  --backend {name:<10} {:>9.2} ms", ns / 1e6);
    }
    println!(
        "  paged page cache: {} hits, {} misses, {} evictions",
        paged_cache.hits, paged_cache.misses, paged_cache.evictions
    );
    if let Some((encoded_ms, paged_ms, agree, pc)) = &paged_scale {
        println!("\n  out-of-core scaling (8 entities, 1M rows, 64 MiB pool, 1 sample):");
        println!("  --backend encoded    {encoded_ms:>9.0} ms");
        println!(
            "  --backend paged      {paged_ms:>9.0} ms   ({} hits, {} misses, {} evictions)",
            pc.hits, pc.misses, pc.evictions
        );
        println!(
            "  designs agree: {}",
            if *agree { "yes" } else { "NO — INVESTIGATE" }
        );
    }
    println!(
        "\n  ingest to spill pages ({} rows, median of 3):",
        ingest.0
    );
    println!("  streaming     {:>12.0} rows/s", ingest.1);
    println!("  materialized  {:>12.0} rows/s", ingest.2);
    if let Some((rows, ingest_s, probe_ms, pc)) = &out_of_core_10m {
        println!("\n  out-of-core ingest ({rows} rows, streamed straight to spill, 1 sample):");
        println!("  ingest        {ingest_s:>9.1} s");
        println!(
            "  paged probes  {probe_ms:>9.0} ms   ({} hits, {} misses, {} evictions)",
            pc.hits, pc.misses, pc.evictions
        );
    }
    if let Some((rows, threads, serial_ms, parallel_ms)) = &paged_parallel {
        println!("\n  page-parallel fd_holds scan ({rows} rows, warm pool):");
        println!("  1 thread      {serial_ms:>9.2} ms");
        println!(
            "  {threads} threads     {parallel_ms:>9.2} ms   ({:.2}x)",
            serial_ms / parallel_ms.max(1e-9)
        );
    }
    println!("\n  concurrent service (8 entities, 1000 rows, one shared engine):");
    for (n, sps, p50, p99, agree) in &service_rows {
        println!(
            "  {n} session{} {sps:>10.1} sessions/s   p50 {:>8.1} us, p99 {:>8.1} us   logs {}",
            if *n == 1 { " " } else { "s" },
            p50 / 1e3,
            p99 / 1e3,
            if *agree {
                "agree with serial"
            } else {
                "DIVERGED"
            }
        );
    }

    if check {
        let of = |name: &str| {
            backend_rows
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, ns)| ns)
                .unwrap_or(f64::NAN)
        };
        // A single median pair flakes on loaded CI machines: a noisy
        // neighbour during the sql samples inflates the ratio with no
        // regression anywhere. Take the best of three attempts (the
        // first reuses the report's numbers) and fail only when every
        // attempt blows the budget; print both medians each time so a
        // real failure shows its evidence.
        let remeasure = |choice: dbre_core::BackendChoice| -> f64 {
            let opts = PipelineOptions {
                backend: choice,
                ..Default::default()
            };
            median_ns(samples, || {
                let mut oracle = AutoOracle::default();
                std::hint::black_box(dbre_core::run_with_q(
                    sp.db.clone(),
                    &qp,
                    &mut oracle,
                    &opts,
                ));
            })
        };
        let gate = |name: &str, choice: dbre_core::BackendChoice, budget: f64| {
            let mut best = f64::NAN;
            for attempt in 1..=3 {
                let (numer, encoded) = if attempt == 1 {
                    (of(name), of("encoded"))
                } else {
                    (
                        remeasure(choice),
                        remeasure(dbre_core::BackendChoice::Encoded),
                    )
                };
                let ratio = numer / encoded;
                println!(
                    "\n  check attempt {attempt}: {name}/encoded pipeline ratio = {ratio:.2}x \
                     (budget {budget:.2}x; {name} {:.2} ms, encoded {:.2} ms)",
                    numer / 1e6,
                    encoded / 1e6
                );
                // NaN (missing backend row) never becomes the best ratio.
                if !ratio.is_nan() && (best.is_nan() || ratio < best) {
                    best = ratio;
                }
                if ratio <= budget {
                    break;
                }
            }
            if best.is_nan() || best > budget {
                eprintln!(
                    "FAIL: {name} backend pipeline median exceeds {budget}x encoded \
                     in all attempts"
                );
                std::process::exit(1);
            }
        };
        gate("sql", dbre_core::BackendChoice::Sql, 2.0);
        gate("paged", dbre_core::BackendChoice::Paged, 1.1);

        // Service gate. Determinism is absolute — logs diverging from
        // the serial run fail immediately, no retries (scheduling must
        // never change answers, so this cannot flake). The timing half
        // follows the best-of-3 pattern above: 8 concurrent sessions
        // over the shared engine must hold at least 0.8x solo
        // throughput (cache sharing covers that even on a single
        // core, where no parallel speedup exists at all), and p99
        // presumption latency may not blow past 100x solo — a
        // generous ceiling that still catches an accidental global
        // serialization point.
        {
            use dbre_core::service::{run_service, shared_engine};
            let opts = PipelineOptions::default();
            let mut oracle = AutoOracle::default();
            let serial_log = dbre_core::run_with_q(sp.db.clone(), &qp, &mut oracle, &opts).log;
            let snapshot = dbre_relational::DbSnapshot::new(sp.db.clone());
            let measure = |n: usize| {
                let engine = shared_engine(&opts);
                let report =
                    run_service(&snapshot, &engine, &qp, &opts, n, |_| AutoOracle::default());
                let agree = report.logs_identical()
                    && report
                        .outcomes
                        .first()
                        .is_none_or(|o| o.result.log == serial_log);
                if !agree {
                    eprintln!(
                        "FAIL: concurrent session logs diverged from the serial run \
                         ({n} sessions)"
                    );
                    std::process::exit(1);
                }
                let p99 = report
                    .presumption_percentiles()
                    .map(|(_, p99)| p99.as_secs_f64() * 1e9)
                    .unwrap_or(0.0);
                (report.sessions_per_sec(), p99)
            };
            let mut ok = false;
            for attempt in 1..=3 {
                let (sps1, p99_1) = measure(1);
                let (sps8, p99_8) = measure(8);
                let p99_budget = p99_1.max(10_000.0) * 100.0;
                println!(
                    "\n  check attempt {attempt}: service 1 -> 8 sessions, throughput \
                     {sps1:.1} -> {sps8:.1} sessions/s, p99 {:.1} -> {:.1} us \
                     (budget {:.1} us)",
                    p99_1 / 1e3,
                    p99_8 / 1e3,
                    p99_budget / 1e3
                );
                if sps8 >= 0.8 * sps1 && p99_8 <= p99_budget {
                    ok = true;
                    break;
                }
            }
            if !ok {
                eprintln!(
                    "FAIL: 8-session service lost throughput vs solo or blew the p99 \
                     presumption-latency budget in all attempts"
                );
                std::process::exit(1);
            }
        }

        // The persistent spill cache must make a warm rerun skip the
        // encode entirely: the cold ingest commits an entry (a miss),
        // the rerun on unchanged input is served from it (a hit).
        let dir = std::env::temp_dir().join(format!("dbre-xb-spillcheck-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create spill-check dir");
        let csv = dir.join("rows.csv");
        write_synth_csv(&csv, 5_000).expect("write spill-check CSV");
        let cache = dir.join("cache");
        let cold = {
            let (mut db, rel) = ingest_db();
            dbre_relational::csv::import_csv_spilled(&mut db, rel, &csv, Some(&cache))
                .expect("cold spill-check ingest")
        };
        let warm = {
            let (mut db, rel) = ingest_db();
            dbre_relational::csv::import_csv_spilled(&mut db, rel, &csv, Some(&cache))
                .expect("warm spill-check ingest")
        };
        println!(
            "\n  spill cache check: cold from_cache={}, warm from_cache={}",
            cold.from_cache(),
            warm.from_cache()
        );
        std::fs::remove_dir_all(&dir).ok();
        if cold.from_cache() || !warm.from_cache() {
            eprintln!("FAIL: warm --spill-dir rerun must skip the encode (cold miss, warm hit)");
            std::process::exit(1);
        }
    }
}

/// Writes the synthetic three-column CSV used by the ingest and
/// out-of-core measurements: `id` unique, `grp` a 1000-way group,
/// `val` a 50k-value payload functionally determined by `grp`.
fn write_synth_csv(path: &std::path::Path, rows: usize) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,grp,val")?;
    for i in 0..rows {
        writeln!(w, "{},{},{}", i, i % 1000, (i % 1000) * 7)?;
    }
    w.flush()
}

/// A one-relation scratch database matching `write_synth_csv`.
fn ingest_db() -> (dbre_relational::Database, dbre_relational::RelId) {
    use dbre_relational::{Database, Domain, Relation};
    let mut db = Database::new();
    let rel = db
        .add_relation(Relation::of(
            "Ingest",
            &[
                ("id", Domain::Int),
                ("grp", Domain::Int),
                ("val", Domain::Int),
            ],
        ))
        .expect("add Ingest relation");
    (db, rel)
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
