//! X1 bench: query-guided IND-Discovery (the paper's §6.1) against
//! exhaustive SPIDER unary-IND mining, over growing databases.
//!
//! The shape to observe: IND-Discovery cost grows with `|Q|` and the
//! projected column sizes only, while SPIDER grows with the *total*
//! number of attribute pairs in the database — the paper's "programs
//! as oracles" thesis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbre_bench::scenario;
use dbre_mine::spider::{spider, SpiderConfig};
use dbre_relational::counting::join_stats;
use dbre_relational::{CountBackend, StatsEngine};
use dbre_synth::TruthOracle;
use std::hint::black_box;

fn bench_ind(c: &mut Criterion) {
    let mut group = c.benchmark_group("ind_discovery");
    group.sample_size(10);
    for &(entities, rows) in &[(4usize, 2000usize), (8, 2000), (16, 2000)] {
        let s = scenario(entities, rows, 42);
        let q = dbre_extract::extract_programs(
            &s.db.schema,
            &s.programs,
            &dbre_extract::ExtractConfig::default(),
        )
        .q();

        // Cold ‖·‖ counting for the whole Q, Value-based reference vs
        // the dictionary-encoded engine path (a fresh engine per
        // iteration: every probe is a cache miss, dictionary builds
        // included).
        group.bench_with_input(
            BenchmarkId::new("join_stats_cold_reference", format!("e{entities}_r{rows}")),
            &(&s, &q),
            |b, (s, q)| {
                b.iter(|| {
                    for join in q.iter() {
                        black_box(join_stats(&s.db, join));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("join_stats_cold_encoded", format!("e{entities}_r{rows}")),
            &(&s, &q),
            |b, (s, q)| {
                b.iter(|| {
                    let engine = StatsEngine::new();
                    for join in q.iter() {
                        black_box(engine.join_stats(&s.db, join));
                    }
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("paper_query_guided", format!("e{entities}_r{rows}")),
            &(&s, &q),
            |b, (s, q)| {
                b.iter(|| {
                    let mut db = s.db.clone();
                    let mut oracle = TruthOracle::new(s.truth.clone());
                    black_box(dbre_core::ind_discovery(&mut db, q, &mut oracle).unwrap())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("spider_exhaustive", format!("e{entities}_r{rows}")),
            &s,
            |b, s| b.iter(|| black_box(spider(&s.db, &SpiderConfig::default()))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ind);
criterion_main!(benches);
