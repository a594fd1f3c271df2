//! Tracing must not change the program: traced and untraced dialogues
//! of every workload, at reduced scale, make the same decisions, elicit
//! the same dependencies, produce the same EER schema, and move the
//! same engine, pool and sketch counters.

use dbre_core::pipeline::PipelineResult;
use dbre_core::render::{render_fds, render_inds, render_log};
use dbre_core::service::shared_engine;
use dbre_e2ebench::bench::{cold_dialogue, traced_cold_dialogue, Service};
use dbre_e2ebench::trace::{TimingBackend, Tracer};
use dbre_e2ebench::workload::{answer_key_names, check, load, open, write_inputs, Scale, Workload};
use dbre_relational::backend::EncodedBackend;
use dbre_relational::stats::StatsEngine;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 42;
const SCALE: Scale = Scale {
    entities: 8,
    rows: 300,
};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fidelity-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything a dialogue decided or elicited, as text.
fn findings(r: &PipelineResult) -> String {
    format!(
        "{}\n{}\n{}\n{}",
        render_log(&r.log),
        render_inds(&r.db_before, &r.ind.inds),
        render_fds(&r.db_before, &r.rhs.fds),
        r.eer.render_text()
    )
}

/// Engine, pool and sketch counters of a dialogue.
fn counters(r: &PipelineResult) -> String {
    let p = &r.stats.page_cache;
    let s = &r.stats.sketch;
    format!(
        "{:?} {} {} {} {} {} {}",
        r.stats.counters, p.hits, p.misses, p.evictions, s.candidates, s.pruned, s.verified
    )
}

fn cold_fidelity(workload: Workload) {
    let dir = scratch(workload.name());
    write_inputs(workload, SCALE, SEED, &dir).unwrap();
    let inputs = open(SCALE, SEED, &dir).unwrap();
    let spill = (workload == Workload::ColdSpilled).then(|| dir.join("spill"));
    let loaded = load(&inputs, spill).unwrap();
    let options = workload.options(&loaded.spilled);
    let tracer = Tracer::new();

    let (_, plain) = cold_dialogue(&inputs, &loaded, &options);
    let (_, traced) = traced_cold_dialogue(workload, &inputs.truth, &loaded, &options, &tracer, 1);
    assert_eq!(check(&plain, &inputs).0.failure, None);
    assert_eq!(findings(&plain), findings(&traced));
    assert_eq!(counters(&plain), counters(&traced));
    assert_eq!(plain.provenance.len(), traced.provenance.len());
    if workload == Workload::ColdSpilled {
        assert!(traced.stats.page_cache.misses > 0, "the pool was used");
        assert!(traced.log.iter().any(|r| r.step == "Key inference"));
    }
    let spans = tracer.spans();
    assert!(spans.iter().any(|s| s.name == "probe.join_stats"));
    assert!(spans.iter().any(|s| s.name == "probe.column_sketch"));
    assert!(spans.iter().any(|s| s.name == "oracle"));
    drop(loaded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_inmem_traced_matches_untraced() {
    cold_fidelity(Workload::ColdInmem);
}

#[test]
fn cold_spilled_traced_matches_untraced() {
    cold_fidelity(Workload::ColdSpilled);
}

#[test]
fn warm_service_traced_matches_untraced() {
    let dir = scratch("warm-service");
    let workload = Workload::WarmService;
    write_inputs(workload, SCALE, SEED, &dir).unwrap();
    let inputs = open(SCALE, SEED, &dir).unwrap();
    let service = Service::new(&inputs.truth, load(&inputs, None).unwrap());
    assert_eq!(check(&service.serial, &inputs).0.failure, None);
    let tracer = Tracer::new();
    let plain_engine = shared_engine(&service.options);
    let traced_engine = Arc::new(StatsEngine::with_backend(Box::new(TimingBackend::new(
        Box::new(EncodedBackend::new()),
        Arc::clone(&tracer),
    ))));
    // Dialogues one after another on each engine: the first fills the
    // shared caches, the later ones run warm.
    for _ in 0..3 {
        let plain = service.dialogue(&inputs.truth, &plain_engine).result;
        let traced = service.traced_dialogue(&inputs.truth, &traced_engine, &tracer);
        assert!(service.agrees(&plain));
        assert!(service.agrees(&traced));
        assert_eq!(findings(&plain), findings(&traced));
        assert_eq!(counters(&plain), counters(&traced));
        assert_eq!(plain_engine.counters(), traced_engine.counters());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The answer key a run regenerates at small scale names exactly what
/// the full-scale generation names.
#[test]
fn answer_key_does_not_depend_on_rows() {
    for seed in [42, 7] {
        let small = answer_key_names(
            Scale {
                entities: 8,
                rows: 64,
            },
            seed,
            seed,
        );
        let large = answer_key_names(
            Scale {
                entities: 8,
                rows: 3000,
            },
            seed,
            seed,
        );
        assert!(small == large, "seed {seed}: answer keys differ");
    }
}
