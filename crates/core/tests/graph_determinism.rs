//! Determinism guarantees of the graph engine:
//!
//! * one table over {plain, weighted} × {static, temporal} × the seven
//!   graph protocols: for every row, whole runs agree sequentially and on
//!   rayon, and every early round is bit-identical computed sequentially,
//!   as a random contiguous shard partition, and by `step_par` (cell
//!   randomness is a pure function of the cell, so shard composition
//!   covers arbitrary scheduling; the thread count is whatever
//!   `RAYON_NUM_THREADS` pins);
//! * the allocation-free `step_population_into` draws bit-identically to
//!   the allocating `step_population` for every protocol.

use od_core::protocol::{
    GraphProtocol, HMajority, MedianRule, Noisy, StepScratch, SyncProtocol, ThreeMajority,
    TwoChoices, UndecidedDynamics, Voter,
};
use od_core::{GraphSchedule, GraphSimulation, OpinionCounts, RoundScratch, ScratchPool};
use od_graphs::{
    barbell, core_periphery, cycle, erdos_renyi, random_regular, repair_isolated, star,
    stochastic_block_model, torus_2d, CompleteWithSelfLoops, CsrGraph, Graph, TemporalGraph,
    WeightResolver, WeightedCsrGraph, WeightedTemporalGraph,
};
use od_sampling::rng_for;
use od_sampling::seeds::derive_seed;
use proptest::prelude::*;

/// One row of the table: `protocol` on `schedule`. Asserts that a full
/// parallel run equals the sequential run, and that each of the first
/// six rounds (two epochs for any period <= 3) is bit-identical computed
/// sequentially, as the contiguous shard partition cut at `cuts` (taken
/// modulo `n + 1`, each shard with fresh scratch), and by `step_par`.
fn check_row<P, S>(label: &str, protocol: P, schedule: S, k: u32, trial_seed: u64, cuts: &[usize])
where
    P: GraphProtocol + Sync,
    S: GraphSchedule + Sync,
    S::Graph: Sync,
{
    let n = schedule.vertex_count();
    let initial: Vec<u32> = (0..n).map(|v| (v as u32) % k).collect();
    let sim = GraphSimulation::new(protocol, schedule).with_max_rounds(40);
    let seq = sim.run(&initial, trial_seed);
    let par = sim.run_par(&initial, trial_seed);
    assert_eq!(seq, par, "{label}: run_par != run on {n} vertices, k = {k}");

    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
    bounds.extend([0, n]);
    bounds.sort_unstable();
    bounds.dedup();
    let pool = ScratchPool::new();
    let mut reference = vec![0u32; n];
    let mut parallel = vec![0u32; n];
    let mut sharded = vec![0u32; n];
    let mut src = initial;
    for round in 0..6 {
        sim.step_shard(
            trial_seed,
            round,
            0,
            &src,
            &mut reference,
            &mut RoundScratch::new(),
        );
        sim.step_par(trial_seed, round, &src, &mut parallel, &pool);
        assert_eq!(
            reference, parallel,
            "{label}: round {round}: step_par diverged"
        );
        for shard in bounds.windows(2) {
            let (start, end) = (shard[0], shard[1]);
            sim.step_shard(
                trial_seed,
                round,
                start,
                &src,
                &mut sharded[start..end],
                &mut RoundScratch::new(),
            );
        }
        assert_eq!(
            reference, sharded,
            "{label}: round {round}: shard partition {bounds:?} diverged"
        );
        src.copy_from_slice(&reference);
    }
}

/// The protocol axis of the table: every registered graph protocol on
/// one schedule.
fn check_all_protocols<S>(label: &str, schedule: S, k: u32, trial_seed: u64, cuts: &[usize])
where
    S: GraphSchedule + Copy + Sync,
    S::Graph: Sync,
{
    check_row(label, ThreeMajority, schedule, k, trial_seed, cuts);
    check_row(label, TwoChoices, schedule, k, trial_seed, cuts);
    check_row(label, Voter, schedule, k, trial_seed, cuts);
    check_row(label, MedianRule, schedule, k, trial_seed, cuts);
    check_row(
        label,
        HMajority::new(5).unwrap(),
        schedule,
        k,
        trial_seed,
        cuts,
    );
    // Undecided: opinions 0..k are decided, k is the blank state; the
    // striped initial includes blanks when taken modulo k + 1.
    check_row(
        label,
        UndecidedDynamics::new(k as usize),
        schedule,
        k + 1,
        trial_seed,
        cuts,
    );
    check_row(
        label,
        Noisy::new(ThreeMajority, 0.1, k as usize).unwrap(),
        schedule,
        k,
        trial_seed,
        cuts,
    );
}

/// Seeded, symmetric, per-pair pseudo-random weights in [1, 16]:
/// irregular rows exercise the per-vertex threshold path; the +1 floor
/// keeps every row positive.
fn pair_weight(graph_seed: u64) -> impl Fn(usize, usize) -> u32 + Copy + Send + Sync {
    move |u, v| {
        let pair = ((u.min(v) as u64) << 32) | u.max(v) as u64;
        (derive_seed(graph_seed, pair) % 16) as u32 + 1
    }
}

/// Every generated family at a feasible size, plus the complete graph.
fn generated_families(n: usize, seed: u64) -> Vec<(&'static str, CsrGraph)> {
    let mut rng = rng_for(seed, 0);
    let even = n + n % 2; // feasibility for regular/barbell
    vec![
        ("erdos-renyi", {
            // A cycle backbone keeps every vertex non-isolated (a
            // degree-0 vertex has nothing to pull from).
            let er = erdos_renyi(n, 4.0 / n as f64, &mut rng).unwrap();
            let mut edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
            for v in 0..er.n() {
                for w in er.neighbors(v) {
                    if v < w {
                        edges.push((v, w));
                    }
                }
            }
            CsrGraph::from_edges(n, &edges)
        }),
        (
            "random-regular",
            random_regular(even.max(8), 6, &mut rng).unwrap(),
        ),
        (
            "sbm",
            stochastic_block_model(n.max(4), 0.5, 0.05, &mut rng).unwrap(),
        ),
        ("cycle", cycle(n.max(3))),
        ("torus", torus_2d(4, 5)),
        ("barbell", barbell(even.max(8) / 2)),
        ("core-periphery", core_periphery(4, n)),
        ("star", star(n.max(2))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn static_graphs_are_partition_invariant_everywhere(
        n in 16usize..96,
        k in 2u32..6,
        trial_seed in 0u64..10_000,
        graph_seed in 0u64..1_000,
        cuts in proptest::collection::vec(0usize..1_000, 0..4),
    ) {
        // Plain × static: every generated family plus the complete graph.
        check_all_protocols("complete", CompleteWithSelfLoops::new(n), k, trial_seed, &cuts);
        let weight = pair_weight(graph_seed);
        for (name, graph) in generated_families(n, graph_seed) {
            check_all_protocols(name, &graph, k, trial_seed, &cuts);
            if !graph.has_no_isolated_vertices() {
                // A sparse SBM draw can isolate a vertex; weighted
                // construction rejects those rows by design.
                continue;
            }
            // Weighted × static, on the same topology.
            let weighted = WeightedCsrGraph::from_csr_with(graph.clone(), weight)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            check_all_protocols(name, &weighted, k, trial_seed, &cuts);
            // The resolution strategy is a pure post-processing choice:
            // a prefix-search-backed graph must run bit-identical whole
            // trials to the alias-backed default.
            let prefix = WeightedCsrGraph::from_csr_with_resolver(
                graph, weight, WeightResolver::Prefix,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            let initial: Vec<u32> = (0..prefix.n()).map(|v| (v as u32) % k).collect();
            let via_alias = GraphSimulation::new(ThreeMajority, &weighted)
                .with_max_rounds(40)
                .run(&initial, trial_seed);
            let via_prefix = GraphSimulation::new(ThreeMajority, &prefix)
                .with_max_rounds(40)
                .run(&initial, trial_seed);
            prop_assert!(via_alias == via_prefix, "{name}: alias vs prefix diverged");
        }
    }

    #[test]
    fn temporal_schedules_are_partition_invariant_everywhere(
        n in 16usize..64,
        k in 2u32..6,
        trial_seed in 0u64..10_000,
        graph_seed in 0u64..1_000,
        period in 1u64..4,
        cuts in proptest::collection::vec(0usize..1_000, 0..4),
    ) {
        // Plain × temporal: a heterogeneous periodic schedule mixing
        // three families, and a seeded rewiring schedule.
        let families = generated_families(n, graph_seed);
        let base_n = families[0].1.n();
        let snapshots: Vec<CsrGraph> = families
            .into_iter()
            .filter(|(_, g)| g.n() == base_n && g.has_no_isolated_vertices())
            .map(|(_, g)| g)
            .take(3)
            .collect();
        let weight = pair_weight(graph_seed);
        let weighted_snapshots: Vec<WeightedCsrGraph> = snapshots
            .iter()
            .map(|g| WeightedCsrGraph::from_csr_with(g.clone(), weight).unwrap())
            .collect();
        let periodic = TemporalGraph::periodic(snapshots, period).unwrap();
        check_all_protocols("periodic", &periodic, k, trial_seed, &cuts);
        let m = base_n.max(8);
        let rewiring = TemporalGraph::rewiring(
            m,
            move |epoch| {
                let mut rng = rng_for(derive_seed(graph_seed, epoch), 0);
                random_regular(m, 4, &mut rng).unwrap()
            },
            period,
        )
        .unwrap();
        check_all_protocols("rewiring", &rewiring, k, trial_seed, &cuts);

        // Weighted × temporal: the same periodic snapshots, each with its
        // own weight rows, and a seeded weighted rewiring schedule over
        // *repaired* sparse ER epochs — the families the runtime's rewire
        // repair pass unlocked.
        let periodic = WeightedTemporalGraph::periodic(weighted_snapshots, period).unwrap();
        check_all_protocols("weighted periodic", &periodic, k, trial_seed, &cuts);
        let rewiring = WeightedTemporalGraph::rewiring(
            m,
            move |epoch| {
                let mut rng = rng_for(derive_seed(graph_seed, epoch), 0);
                // Sparse enough to isolate vertices regularly: the
                // deterministic repair pass must keep every epoch both
                // sampleable and partition-invariant.
                let sparse = erdos_renyi(m, 1.5 / m as f64, &mut rng).unwrap();
                WeightedCsrGraph::from_csr_with(repair_isolated(sparse), weight).unwrap()
            },
            period,
        )
        .unwrap();
        check_all_protocols("weighted rewiring", &rewiring, k, trial_seed, &cuts);
    }

    #[test]
    fn step_population_into_matches_step_population(
        counts in proptest::collection::vec(0u64..80, 2..=6)
            .prop_filter("positive population", |v| v.iter().sum::<u64>() > 0),
        seed in 0u64..10_000,
    ) {
        let start = OpinionCounts::from_counts(counts).unwrap();
        let k = start.k();
        let protocols: Vec<Box<dyn SyncProtocol>> = vec![
            Box::new(ThreeMajority),
            Box::new(TwoChoices),
            Box::new(Voter),
            Box::new(MedianRule),
            Box::new(HMajority::new(5).unwrap()),
            Box::new(UndecidedDynamics::new(k - 1)),
            Box::new(Noisy::new(ThreeMajority, 0.05, k).unwrap()),
        ];
        for protocol in &protocols {
            let mut rng_a = rng_for(seed, 7);
            let mut rng_b = rng_for(seed, 7);
            let allocating = protocol.step_population(&start, &mut rng_a);
            let mut scratch = StepScratch::new();
            let mut into = start.clone();
            protocol.step_population_into(&start, &mut rng_b, &mut scratch, &mut into);
            prop_assert!(
                allocating.counts() == into.counts(),
                "protocol {} diverged: {:?} vs {:?}",
                protocol.name(),
                allocating.counts(),
                into.counts()
            );
            // And the RNGs must have advanced identically.
            prop_assert_eq!(
                rand::Rng::random::<u64>(&mut rng_a),
                rand::Rng::random::<u64>(&mut rng_b)
            );
        }
    }
}

#[test]
fn batched_equals_parallel_batched_at_scale() {
    // Large enough that each parallel shard spans many BATCH_CHUNK
    // sub-chunks.
    let mut rng = rng_for(910, 0);
    let g = random_regular(20_000, 8, &mut rng).unwrap();
    let sim = GraphSimulation::new(ThreeMajority, &g).with_max_rounds(10);
    let initial: Vec<u32> = (0..20_000).map(|v| (v % 5) as u32).collect();
    let seq = sim.run(&initial, 123);
    let par = sim.run_par(&initial, 123);
    assert_eq!(seq, par);
}
