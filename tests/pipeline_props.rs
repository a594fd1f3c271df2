//! Cross-crate property tests: the full pipeline on randomized
//! synthetic workloads must uphold its invariants for *every* seed,
//! coverage, and noise level — not just the hand-picked scenarios.

use dbre::core::pipeline::{run_with_programs, PipelineOptions, PipelineResult};
use dbre::core::{AutoOracle, BackendChoice, DenyOracle, Oracle};
use dbre::relational::csv::{export_csv, import_csv_spilled};
use dbre::relational::normal_forms::{analyze, NormalForm};
use dbre::relational::{Database, Table};
use dbre::synth::{
    build_workload, corrupt, evaluate, generate_programs, generate_spec, CorruptionConfig,
    DenormConfig, GeneratedPrograms, GroundTruth, ProgramConfig, SynthConfig, TruthOracle,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A synthetic legacy system, corrupted when `noise > 0`, and the
/// programs navigating it.
fn workload(seed: u64, coverage: f64, noise: f64) -> (Database, GroundTruth, GeneratedPrograms) {
    let spec = generate_spec(&SynthConfig {
        n_entities: 5,
        n_relationships: 2,
        n_entity_fks: 3,
        n_isa: 1,
        rows_per_entity: 40,
        rows_per_relationship: 60,
        seed,
        ..Default::default()
    });
    let (mut db, truth) = build_workload(
        &spec,
        &DenormConfig {
            p_embed: 0.7,
            p_drop: 0.5,
            seed,
        },
        seed,
    );
    if noise > 0.0 {
        corrupt(
            &mut db,
            &truth,
            &CorruptionConfig {
                fd_noise: noise,
                ind_noise: noise,
                seed,
            },
        );
    }
    let programs = generate_programs(
        &truth,
        &ProgramConfig {
            coverage,
            noise_programs: 1,
            seed,
        },
    );
    (db, truth, programs)
}

fn run_one(
    seed: u64,
    coverage: f64,
    noise: f64,
    oracle_kind: u8,
) -> (PipelineResult, GroundTruth, Vec<bool>) {
    let (db, truth, programs) = workload(seed, coverage, noise);
    let mut truth_oracle;
    let mut auto;
    let mut deny;
    let oracle: &mut dyn Oracle = match oracle_kind {
        0 => {
            truth_oracle = TruthOracle::new(truth.clone());
            &mut truth_oracle
        }
        1 => {
            auto = AutoOracle::default();
            &mut auto
        }
        _ => {
            deny = DenyOracle;
            &mut deny
        }
    };
    let result = run_with_programs(db, &programs.programs, oracle, &PipelineOptions::default());
    (result, truth, programs.covered)
}

/// `db`'s extensions streamed to spill pages — each table exported to
/// CSV and re-imported through the streamed ingest — as the options
/// that adopt them, plus the database holding no resident value.
fn streamed(db: &Database) -> (Database, PipelineOptions) {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let mut out = Database::new();
    for (_, relation) in db.schema.iter() {
        out.add_relation(relation.clone()).unwrap();
    }
    out.constraints = db.constraints.clone();
    let mut spilled = Vec::new();
    for (rel, relation) in db.schema.iter() {
        let name = format!(
            "dbre-props-{}-{run}-{}.csv",
            std::process::id(),
            relation.name
        );
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, export_csv(db, rel)).unwrap();
        spilled.push((
            rel,
            Arc::new(import_csv_spilled(&mut out, rel, &path, None).unwrap()),
        ));
        let _ = std::fs::remove_file(path);
    }
    let options = PipelineOptions {
        backend: BackendChoice::Paged,
        spilled,
        ..Default::default()
    };
    (out, options)
}

/// Every relation's name and restructured extension.
fn tables(r: &PipelineResult) -> Vec<(String, Table)> {
    let named =
        r.db.schema
            .iter()
            .map(|(rel, relation)| (relation.name.clone(), rel));
    named
        .map(|(name, rel)| (name, r.db.table(rel).clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_invariants_hold_for_all_seeds(
        seed in 0u64..500,
        coverage in 0.0f64..=1.0,
        noise in prop_oneof![Just(0.0f64), 0.0f64..0.1],
        oracle_kind in 0u8..3,
    ) {
        let (result, truth, covered) = run_one(seed, coverage, noise, oracle_kind);

        // 1. The restructured dictionary is internally consistent.
        result.db.validate_dictionary().map_err(|e| {
            TestCaseError::fail(format!("dictionary violated: {e}"))
        })?;

        // 2. Every relation is 3NF w.r.t. the re-homed dependencies.
        for (rel, relation) in result.db.schema.iter() {
            let fds: Vec<_> = result
                .restructured
                .fds
                .iter()
                .filter(|f| f.rel == rel)
                .cloned()
                .collect();
            let report = analyze(rel, &relation.all_attrs(), &fds);
            prop_assert!(
                report.form >= NormalForm::Third,
                "{} ended below 3NF",
                relation.name
            );
        }

        // 3. RIC ⊆ IND set, and every RIC's right-hand side is a key.
        for ric in &result.restructured.ric {
            prop_assert!(result.restructured.inds.contains(ric));
            prop_assert!(result
                .db
                .constraints
                .is_key(ric.rhs.rel, &ric.rhs.attr_set()));
        }

        // 4. Without corruption, every elicited IND holds in the
        //    ORIGINAL extension and every restructured IND holds in
        //    the restructured one — unless the oracle *forced* an
        //    inclusion (which by definition contradicts the extension;
        //    AutoOracle does so at ≥95% overlap even on clean data).
        let forced = result
            .log
            .iter()
            .any(|r| r.decision.starts_with("Force"));
        if noise == 0.0 && !forced {
            for ind in &result.ind.inds {
                prop_assert!(result.db_before.ind_holds(ind), "{ind}");
            }
            for ind in &result.restructured.inds {
                prop_assert!(result.db.ind_holds(ind), "{ind}");
            }
        }

        // 5. Metrics are well-formed.
        let q = evaluate(&result, &truth, Some(&covered));
        for v in [
            q.ind.precision,
            q.ind.recall,
            q.fd.precision,
            q.fd.recall,
            q.schema.precision,
            q.schema.recall,
            q.hidden_recovery,
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
        }

        // 6. The EER schema mentions only existing relations.
        let names: std::collections::BTreeSet<String> = result
            .db
            .schema
            .iter()
            .map(|(_, r)| r.name.clone())
            .collect();
        for e in &result.eer.entities {
            prop_assert!(names.contains(&e.name));
        }
        for r in &result.eer.relationships {
            for p in &r.participants {
                prop_assert!(names.contains(&p.object), "dangling {p:?}");
            }
        }
        for l in &result.eer.isa {
            prop_assert!(names.contains(&l.sub) && names.contains(&l.sup));
        }
    }

    /// Dirty data gives the same dialogue whether the extension is
    /// resident or streamed: the g3 errors the oracle decides on, the
    /// enforced FDs and the plurality extensions Restruct splits off
    /// them agree, so the logs, FDs, EER and every restructured table
    /// are identical.
    #[test]
    fn streamed_dirty_workload_matches_resident(
        seed in 0u64..500,
        noise in 0.005f64..0.08,
    ) {
        let (db, _, programs) = workload(seed, 1.0, noise);
        let (streamed_db, streamed_options) = streamed(&db);
        // `AutoOracle` enforces a failing FD on its g3 error; the
        // loosened bound makes enforced (and repaired) splits common.
        let run = |db, options: &PipelineOptions| {
            let mut oracle = AutoOracle { enforce_epsilon: 0.1, ..AutoOracle::default() };
            run_with_programs(db, &programs.programs, &mut oracle, options)
        };
        let resident = run(db, &PipelineOptions::default());
        let streamed = run(streamed_db, &streamed_options);
        prop_assert!(resident.is_complete(), "{:?}", resident.stage_errors);
        prop_assert!(streamed.is_complete(), "{:?}", streamed.stage_errors);
        prop_assert_eq!(&streamed.log, &resident.log);
        prop_assert_eq!(&streamed.rhs.fds, &resident.rhs.fds);
        prop_assert_eq!(&streamed.eer, &resident.eer);
        prop_assert_eq!(tables(&streamed), tables(&resident));
    }

    #[test]
    fn truth_oracle_dominates_deny(seed in 0u64..200, noise in 0.01f64..0.08) {
        let (r_truth, truth, _) = run_one(seed, 1.0, noise, 0);
        let (r_deny, _, _) = run_one(seed, 1.0, noise, 2);
        let q_truth = evaluate(&r_truth, &truth, None);
        let q_deny = evaluate(&r_deny, &truth, None);
        // Perfect knowledge can never do worse on recall.
        prop_assert!(q_truth.ind.recall >= q_deny.ind.recall - 1e-9);
        prop_assert!(q_truth.fd.recall >= q_deny.fd.recall - 1e-9);
    }

    /// Perfect knowledge, full coverage and a clean extension recover
    /// every navigated IND and every reachable FD. Precision is not
    /// pinned: the data can nest two referencing sites of a dropped
    /// entity, or satisfy an FD by coincidence (ROADMAP item 5).
    #[test]
    fn truth_oracle_recovers_everything_navigated(seed in 0u64..500) {
        let (result, truth, covered) = run_one(seed, 1.0, 0.0, 0);
        prop_assert!(result.is_complete(), "{:?}", result.stage_errors);
        let q = evaluate(&result, &truth, Some(&covered));
        prop_assert_eq!(q.ind.recall, 1.0);
        prop_assert_eq!(q.fd.recall, 1.0);
    }

    #[test]
    fn more_coverage_never_hurts_ind_recall(seed in 0u64..200) {
        let (r_half, truth, _) = run_one(seed, 0.5, 0.0, 0);
        let (r_full, _, _) = run_one(seed, 1.0, 0.0, 0);
        let q_half = evaluate(&r_half, &truth, None);
        let q_full = evaluate(&r_full, &truth, None);
        prop_assert!(q_full.ind.recall >= q_half.ind.recall - 1e-9);
        prop_assert!(q_full.fd.recall >= q_half.fd.recall - 1e-9);
    }
}
