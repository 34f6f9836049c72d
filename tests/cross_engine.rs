//! Integration: the three engines (population, agent-level, graph-level on
//! the complete graph) realise the same process, and the asynchronous
//! scheduler matches up to the tick/round correspondence.

use opinion_dynamics::core::protocol::{expand, tally, SyncProtocol};
use opinion_dynamics::core::RoundScratch;
use opinion_dynamics::prelude::*;
use rand::RngCore;

/// Mean and variance of `α'(0)` under repeated one-round transitions.
fn one_round_moments(
    step: impl Fn(&mut rand::rngs::StdRng) -> f64,
    trials: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = rng_for(seed, 0);
    let (mut s, mut s2) = (0f64, 0f64);
    for _ in 0..trials {
        let a = step(&mut rng);
        s += a;
        s2 += a * a;
    }
    let mean = s / trials as f64;
    (mean, s2 / trials as f64 - mean * mean)
}

fn assert_close(label: &str, a: (f64, f64), b: (f64, f64), mean_tol: f64, var_rel_tol: f64) {
    assert!(
        (a.0 - b.0).abs() < mean_tol,
        "{label}: means {} vs {}",
        a.0,
        b.0
    );
    assert!(
        (a.1 / b.1 - 1.0).abs() < var_rel_tol,
        "{label}: variances {} vs {}",
        a.1,
        b.1
    );
}

#[test]
fn three_engines_share_one_round_distribution_three_majority() {
    let start = OpinionCounts::from_counts(vec![1200, 500, 300]).unwrap();
    let k = start.k();
    let n = start.n() as usize;
    let trials = 3000;

    let pop = one_round_moments(
        |rng| ThreeMajority.step_population(&start, rng).fraction(0),
        trials,
        1,
    );
    let agents = one_round_moments(
        |rng| {
            let mut ops = expand(&start);
            ThreeMajority.step_agents(&mut ops, rng);
            tally(&ops, k).fraction(0)
        },
        trials,
        2,
    );
    let graph = one_round_moments(
        |rng| {
            let sim = GraphSimulation::new(ThreeMajority, CompleteWithSelfLoops::new(n));
            let src = expand(&start);
            let mut dst = vec![0u32; n];
            let trial_seed = rng.next_u64();
            sim.step_shard(trial_seed, 0, 0, &src, &mut dst, &mut RoundScratch::new());
            tally(&dst, k).fraction(0)
        },
        trials,
        3,
    );

    assert_close("population vs agents", pop, agents, 2e-3, 0.25);
    assert_close("population vs graph", pop, graph, 2e-3, 0.25);
}

#[test]
fn three_engines_share_one_round_distribution_two_choices() {
    let start = OpinionCounts::from_counts(vec![1200, 500, 300]).unwrap();
    let k = start.k();
    let trials = 3000;

    let pop = one_round_moments(
        |rng| TwoChoices.step_population(&start, rng).fraction(0),
        trials,
        4,
    );
    let agents = one_round_moments(
        |rng| {
            let mut ops = expand(&start);
            TwoChoices.step_agents(&mut ops, rng);
            tally(&ops, k).fraction(0)
        },
        trials,
        5,
    );
    assert_close("population vs agents", pop, agents, 2e-3, 0.25);
}

#[test]
fn async_parallel_rounds_match_sync_rounds_scale() {
    let start = OpinionCounts::balanced(1000, 8).unwrap();
    let trials = 8u64;
    let mut sync_mean = 0f64;
    let mut async_mean = 0f64;
    for trial in 0..trials {
        let mut rng = rng_for(6, trial);
        sync_mean += Simulation::new(ThreeMajority).run(&start, &mut rng).rounds as f64;
        let mut rng = rng_for(7, trial);
        async_mean += AsyncSimulation::new(ThreeMajority)
            .run(&start, &mut rng)
            .parallel_rounds;
    }
    sync_mean /= trials as f64;
    async_mean /= trials as f64;
    let ratio = async_mean / sync_mean;
    assert!(
        (0.2..5.0).contains(&ratio),
        "async/sync parallel-round ratio {ratio} outside the constant band \
         (sync {sync_mean}, async {async_mean})"
    );
}

#[test]
fn graph_engine_on_expander_behaves_like_complete_graph() {
    let mut rng = rng_for(8, 0);
    let n = 600usize;
    let expander = opinion_dynamics::graphs::random_regular(n, 8, &mut rng).unwrap();
    let initial: Vec<u32> = (0..n).map(|v| (v % 4) as u32).collect();

    let t_complete = {
        let sim = GraphSimulation::new(ThreeMajority, CompleteWithSelfLoops::new(n))
            .with_max_rounds(50_000);
        sim.run(&initial, rng.next_u64()).rounds
    };
    let t_expander = {
        let sim = GraphSimulation::new(ThreeMajority, expander).with_max_rounds(50_000);
        sim.run(&initial, rng.next_u64()).rounds
    };
    assert!(
        t_expander < 100 * t_complete.max(5),
        "expander time {t_expander} inconsistent with complete-graph time {t_complete}"
    );
}
