//! X2 bench: targeted RHS-Discovery (paper §6.2.2) against full TANE
//! FD mining, plus the two single-FD check backends (hash vs stripped
//! partitions) that RHS-Discovery can sit on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbre_bench::scenario;
use dbre_core::rhs_discovery::RhsOptions;
use dbre_mine::tane::tane;
use dbre_mine::{check_hash, check_partition, StrippedPartition};
use dbre_relational::encode::partition1;
use dbre_relational::{AttrId, AttrSet, CountBackend, Fd, StatsEngine};
use dbre_synth::TruthOracle;
use std::hint::black_box;

fn bench_fd(c: &mut Criterion) {
    let mut group = c.benchmark_group("fd_discovery");
    group.sample_size(10);
    for &rows in &[1000usize, 10_000] {
        let s = scenario(8, rows, 42);
        let q = dbre_extract::extract_programs(
            &s.db.schema,
            &s.programs,
            &dbre_extract::ExtractConfig::default(),
        )
        .q();
        // Pre-run IND/LHS so the bench isolates RHS-Discovery.
        let mut db = s.db.clone();
        let mut oracle = TruthOracle::new(s.truth.clone());
        let ind = dbre_core::ind_discovery(&mut db, &q, &mut oracle).unwrap();
        let lhs = dbre_core::lhs_discovery(&db, &ind.inds, &ind.new_relations);

        group.bench_with_input(
            BenchmarkId::new("paper_rhs_discovery", format!("r{rows}")),
            &(&db, &lhs, &s),
            |b, (db, lhs, s)| {
                b.iter(|| {
                    let mut oracle = TruthOracle::new(s.truth.clone());
                    black_box(dbre_core::rhs_discovery(
                        db,
                        lhs,
                        &mut oracle,
                        &RhsOptions::default(),
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("tane_full_mining", format!("r{rows}")),
            &s,
            |b, s| {
                b.iter(|| {
                    for (rel, _) in s.db.schema.iter() {
                        black_box(tane(rel, s.db.table(rel), Some(2)));
                    }
                })
            },
        );
    }

    // Single-check backends on one wide table.
    let s = scenario(4, 20_000, 7);
    let (rel, _) = s.db.schema.iter().next().expect("non-empty scenario");
    let table = s.db.table(rel);
    if table.arity() >= 2 {
        group.bench_function("fd_check_hash_20k", |b| {
            b.iter(|| black_box(check_hash(table, &[AttrId(0)], &[AttrId(1)])))
        });
        group.bench_function("fd_check_partition_20k", |b| {
            b.iter(|| black_box(check_partition(table, &[AttrId(0)], &[AttrId(1)])))
        });
        // Cold RHS-Discovery batch (`a0 → b` for every other column):
        // the reference rescans per probe; the cold engine builds the
        // LHS dictionary and grouping once and serves the batch.
        group.bench_function("fd_check_batch_cold_reference_20k", |b| {
            b.iter(|| {
                for i in 1..table.arity() {
                    black_box(check_hash(table, &[AttrId(0)], &[AttrId(i as u16)]));
                }
            })
        });
        group.bench_function("fd_check_batch_cold_encoded_20k", |b| {
            b.iter(|| {
                let engine = StatsEngine::new();
                for i in 1..table.arity() {
                    let fd = Fd::new(
                        rel,
                        AttrSet::from_indices([0u16]),
                        AttrSet::from_indices([i as u16]),
                    );
                    black_box(engine.fd_holds(&s.db, &fd));
                }
            })
        });
    }

    // Cold level-1 partition seeding (what TANE and key discovery do
    // first): Value-based reference vs one dictionary pass + code
    // bucketing.
    let s = scenario(8, 10_000, 42);
    group.bench_function("unary_partitions_cold_reference_r10000", |b| {
        b.iter(|| {
            for (rel, relation) in s.db.schema.iter() {
                let table = s.db.table(rel);
                for i in 0..relation.arity() {
                    black_box(StrippedPartition::for_attribute(table, AttrId(i as u16)));
                }
            }
        })
    });
    let pool = dbre_relational::BufferPool::with_capacity_pages(1);
    group.bench_function("unary_partitions_cold_encoded_r10000", |b| {
        b.iter(|| {
            for (rel, relation) in s.db.schema.iter() {
                let table = s.db.table(rel);
                for i in 0..relation.arity() {
                    let col = table.column(AttrId(i as u16));
                    black_box(partition1(col, &pool).expect("resident codes always read"));
                }
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fd);
criterion_main!(benches);
