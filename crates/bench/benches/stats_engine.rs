//! StatsEngine bench: repeated-`Q` cardinality collection, memoized vs
//! naive rescans.
//!
//! The access pattern is the pipeline's own: the same joins are
//! consulted again and again (IND-Discovery pre-collection, reporting,
//! oracle context, RHS probes sharing an LHS). The acceptance target is
//! cached ≥ 2× faster than uncached on repeated `Q`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbre_bench::scenario;
use dbre_relational::{join_stats, CountBackend, StatsEngine};
use std::hint::black_box;

const REPS: usize = 10;

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats_engine");
    group.sample_size(10);
    for &(entities, rows) in &[(8usize, 2000usize), (8, 20_000)] {
        let s = scenario(entities, rows, 42);
        let q = dbre_extract::extract_programs(
            &s.db.schema,
            &s.programs,
            &dbre_extract::ExtractConfig::default(),
        )
        .q();

        group.bench_with_input(
            BenchmarkId::new("naive_repeated_q", format!("e{entities}_r{rows}")),
            &(&s, &q),
            |b, (s, q)| {
                b.iter(|| {
                    for _ in 0..REPS {
                        for join in q.iter() {
                            black_box(join_stats(&s.db, join));
                        }
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cached_repeated_q", format!("e{entities}_r{rows}")),
            &(&s, &q),
            |b, (s, q)| {
                b.iter(|| {
                    // Fresh engine per iteration: the measured time
                    // includes the cold misses, as a pipeline run would.
                    let engine = StatsEngine::new();
                    for _ in 0..REPS {
                        for join in q.iter() {
                            black_box(engine.join_stats(&s.db, join));
                        }
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stats);
criterion_main!(benches);
