//! Every `‖·‖` probe a dialogue generates lowers onto the counting
//! kernels: with the SQL backend, the pipeline runs each generated
//! statement through its tier-1 lowering, never through the tuple
//! interpreter, and no statement falls back to the reference
//! semantics — on the paper's worked example and on a synthetic
//! workload.

use dbre::core::example::{paper_database, paper_oracle, paper_q};
use dbre::core::pipeline::{run_with_q, PipelineOptions, PipelineResult};
use dbre::core::BackendChoice;
use dbre::extract::{extract_programs, ExtractConfig};
use dbre::synth::{
    build_workload, generate_programs, generate_spec, DenormConfig, ProgramConfig, SynthConfig,
    TruthOracle,
};

fn sql_options() -> PipelineOptions {
    PipelineOptions {
        backend: BackendChoice::Sql,
        ..Default::default()
    }
}

fn assert_all_probes_lowered(result: &PipelineResult) {
    assert!(result.is_complete(), "{:?}", result.stage_errors);
    assert_eq!(result.stats.backend, "sql");
    let x = result.stats.backend_exec;
    assert!(x.batch_ops > 0, "no statement was lowered: {x:?}");
    assert_eq!(
        x.tuple_fallback_ops, 0,
        "a statement ran on the tuple interpreter: {x:?}"
    );
    assert_eq!(
        x.fallback_failures, 0,
        "a statement failed to execute: {x:?}"
    );
}

#[test]
fn paper_example_probes_all_lower_on_tier_one() {
    let db = paper_database();
    let q = paper_q(&db);
    let mut oracle = paper_oracle();
    let result = run_with_q(db, &q, &mut oracle, &sql_options());
    assert_all_probes_lowered(&result);
}

#[test]
fn synthetic_workload_probes_all_lower_on_tier_one() {
    let seed = 7;
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
    let (db, truth) = build_workload(
        &spec,
        &DenormConfig {
            p_embed: 0.7,
            p_drop: 0.5,
            seed,
        },
        seed,
    );
    let programs = generate_programs(
        &truth,
        &ProgramConfig {
            coverage: 1.0,
            noise_programs: 1,
            seed,
        },
    );
    let q = extract_programs(&db.schema, &programs.programs, &ExtractConfig::default()).q();
    assert!(!q.is_empty());
    let mut oracle = TruthOracle::new(truth);
    let result = run_with_q(db, &q, &mut oracle, &sql_options());
    assert_all_probes_lowered(&result);
}
