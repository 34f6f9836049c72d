//! E12 / Section 2.5 kernel: agent-level 3-Majority rounds on graph
//! families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use od_bench::rng_for;
use od_core::protocol::ThreeMajority;
use od_core::{GraphSimulation, RoundScratch};
use od_graphs::{random_regular, torus_2d, CompleteWithSelfLoops};
use std::hint::black_box;
use std::time::Duration;

fn bench_graph_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_families_one_round");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let n = 1_024usize;
    let initial: Vec<u32> = (0..n).map(|v| (v % 8) as u32).collect();

    let complete = CompleteWithSelfLoops::new(n);
    group.bench_function(BenchmarkId::new("step", "complete"), |b| {
        let sim = GraphSimulation::new(ThreeMajority, complete);
        let mut dst = vec![0u32; n];
        let mut scratch = RoundScratch::new();
        let mut round = 0u64;
        b.iter(|| {
            sim.step_shard(16, round, 0, &initial, &mut dst, &mut scratch);
            round += 1;
            black_box(&dst);
        });
    });

    let mut rng = rng_for(16, 1);
    let regular = random_regular(n, 8, &mut rng).unwrap();
    group.bench_function(BenchmarkId::new("step", "regular8"), |b| {
        let sim = GraphSimulation::new(ThreeMajority, regular.clone());
        let mut dst = vec![0u32; n];
        let mut scratch = RoundScratch::new();
        let mut round = 0u64;
        b.iter(|| {
            sim.step_shard(16, round, 0, &initial, &mut dst, &mut scratch);
            round += 1;
            black_box(&dst);
        });
    });

    let torus = torus_2d(32, 32);
    group.bench_function(BenchmarkId::new("step", "torus"), |b| {
        let sim = GraphSimulation::new(ThreeMajority, torus.clone());
        let mut dst = vec![0u32; n];
        let mut scratch = RoundScratch::new();
        let mut round = 0u64;
        b.iter(|| {
            sim.step_shard(16, round, 0, &initial, &mut dst, &mut scratch);
            round += 1;
            black_box(&dst);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_graph_families);
criterion_main!(benches);
