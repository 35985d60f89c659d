//! Ablation benches beyond the paper's tables: the design choices
//! DESIGN.md calls out.
//!
//! * `search-strategies` — §3.4's four strategies on the same RMI.
//! * `stage-count` — 1-stage vs 2-stage vs 3-stage RMIs.
//! * `learned-sort` — §7's CDF sort vs `sort_unstable`.
//! * `delta-insert` — Appendix D.1 insert cost vs merge threshold.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use li_core::sort::SortModel;
use li_core::{learned_sort, DeltaIndex, RangeIndex, Rmi, RmiConfig, SearchStrategy, TopModel};
use li_data::Dataset;
use std::time::Duration;

const N: usize = 300_000;

fn bench_search_strategies(c: &mut Criterion) {
    let keyset = Dataset::Lognormal.generate(N, 42);
    let data = keyset.keys().to_vec();
    let queries = keyset.sample_existing(4096, 3);

    let mut group = c.benchmark_group("ablation/search-strategies");
    group.measurement_time(Duration::from_millis(600));
    group.warm_up_time(Duration::from_millis(150));
    group.sample_size(15);

    for strategy in SearchStrategy::ALL {
        let rmi = Rmi::build(
            data.clone(),
            &RmiConfig::two_stage(TopModel::Linear, N / 2000).with_search(strategy),
        );
        let queries = queries.clone();
        let mut qi = 0usize;
        group.bench_function(strategy.name(), move |b| {
            b.iter_batched(
                || {
                    qi = (qi + 1) & 4095;
                    queries[qi]
                },
                |q| rmi.lower_bound(q),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_stage_count(c: &mut Criterion) {
    let keyset = Dataset::Weblogs.generate(N, 42);
    let data = keyset.keys().to_vec();
    let queries = keyset.sample_existing(4096, 5);

    let mut group = c.benchmark_group("ablation/stage-count");
    group.measurement_time(Duration::from_millis(600));
    group.warm_up_time(Duration::from_millis(150));
    group.sample_size(15);

    let configs: Vec<(&str, Vec<usize>)> = vec![
        ("1-stage", vec![1]),
        ("2-stage", vec![N / 2000]),
        ("3-stage", vec![64, N / 2000]),
    ];
    for (name, stages) in configs {
        let cfg = RmiConfig {
            top: TopModel::Linear,
            stages,
            ..Default::default()
        };
        let rmi = Rmi::build(data.clone(), &cfg);
        let queries = queries.clone();
        let mut qi = 0usize;
        group.bench_function(name, move |b| {
            b.iter_batched(
                || {
                    qi = (qi + 1) & 4095;
                    queries[qi]
                },
                |q| rmi.lower_bound(q),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_learned_sort(c: &mut Criterion) {
    let mut rng = li_data::SplitMix64::new(42);
    let keys: Vec<u64> = (0..N).map(|_| rng.next_u64() % 1_000_000_000).collect();

    let mut group = c.benchmark_group("ablation/sort");
    group.measurement_time(Duration::from_millis(1500));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(10);

    {
        let keys = keys.clone();
        group.bench_function("learned-sort", move |b| {
            b.iter_batched(
                || keys.clone(),
                |k| learned_sort(&k, SortModel::Linear),
                BatchSize::LargeInput,
            )
        });
    }
    {
        let keys = keys.clone();
        group.bench_function("sort-unstable", move |b| {
            b.iter_batched(
                || keys.clone(),
                |mut k| {
                    k.sort_unstable();
                    k
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_delta_insert(c: &mut Criterion) {
    let keyset = Dataset::Lognormal.generate(100_000, 42);

    let mut group = c.benchmark_group("ablation/delta-insert");
    group.measurement_time(Duration::from_millis(800));
    group.warm_up_time(Duration::from_millis(150));
    group.sample_size(10);

    for threshold in [1_000usize, 10_000] {
        let base = keyset.keys().to_vec();
        group.bench_function(format!("merge-threshold-{threshold}"), move |b| {
            b.iter_batched(
                || {
                    DeltaIndex::new(
                        base.clone(),
                        RmiConfig::two_stage(TopModel::Linear, 256),
                        threshold,
                    )
                },
                |mut idx| {
                    let last = 2_000_000_000u64;
                    for i in 0..2_000u64 {
                        idx.insert(last + i);
                        if idx.needs_compaction() {
                            idx.compact();
                        }
                    }
                    idx.len()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_search_strategies,
    bench_stage_count,
    bench_learned_sort,
    bench_delta_insert
);
criterion_main!(benches);
