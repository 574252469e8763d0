//! Acceptance tests for the parallel execution subsystem: a
//! `parallel:CxS:placement[:threads]` run is **bit-identical** to the
//! matching `sharded:CxS:placement` run on the same seed — same common
//! stats, same per-shard report, same mechanistic event log, whatever
//! the thread count — pinned by a golden comparison and a property test
//! over random chains, placements and seeds.

use proptest::prelude::*;
use speculative_prefetch::{Engine, MarkovChain, Placement, RunReport, Workload};

const N: usize = 32;

fn catalog() -> Vec<f64> {
    (0..N).map(|i| 1.0 + (i % 13) as f64).collect()
}

fn run(backend_spec: &str, policy: &str, chain: &MarkovChain, traced: bool) -> RunReport {
    let mut engine = Engine::builder()
        .policy(policy)
        .backend_spec(backend_spec)
        .catalog(catalog())
        .build()
        .expect("valid session");
    engine
        .run(&Workload::sharded(chain.clone(), 40, 1999).traced(traced))
        .expect("runs")
}

/// Golden equivalence: every placement × policy combination produces the
/// identical `RunReport` — access stats, per-shard section and the full
/// event log — on the sequential and parallel executors.
#[test]
fn parallel_matches_sharded_event_for_event() {
    let chain = MarkovChain::random(N, 3, 6, 4, 12, 21).expect("valid chain");
    for policy in ["skp-exact", "no-prefetch"] {
        for placement in ["hash", "range", "hot-cold@8"] {
            let sequential = run(&format!("sharded:4x8:{placement}"), policy, &chain, true);
            let parallel = run(&format!("parallel:4x8:{placement}:3"), policy, &chain, true);
            assert!(!sequential.events.is_empty());
            assert_eq!(
                sequential, parallel,
                "{policy}/{placement}: parallel diverged from sequential"
            );
            // The parallel run reports the sharded section — it *is* a
            // sharded run, executed differently.
            assert!(parallel.sharded().is_some());
        }
    }
}

/// The thread count is an execution knob, never a result knob: every
/// thread count (including auto) reproduces the same report bit for
/// bit.
#[test]
fn thread_count_does_not_change_results() {
    let chain = MarkovChain::random(N, 3, 6, 4, 12, 9).expect("valid chain");
    let baseline = run("parallel:6x8:hash:1", "skp-exact", &chain, true);
    for threads in [0usize, 2, 3, 6, 16] {
        let other = run(
            &format!("parallel:6x8:hash:{threads}"),
            "skp-exact",
            &chain,
            true,
        );
        assert_eq!(baseline, other, "threads = {threads} diverged");
    }
}

/// Workload files reach the parallel backend through the ordinary
/// `backend` directive; a `parallel:` file and its `sharded:` twin
/// execute to the identical report.
#[test]
fn parallel_workload_file_matches_sharded_twin() {
    let file = |backend: &str| {
        format!(
            "workload sharded\ntraced\nbackend {backend}\npolicy skp-exact\n\
             requests 30\nseed 7\nchain 12 2 4 2 8 11\nv 5\n{}",
            (0..12)
                .map(|i| format!("item {} {} i{i}\n", 1.0 / 12.0, 2 + (i % 5)))
                .collect::<String>()
        )
    };
    let sequential = speculative_prefetch::parse_workload(&file("sharded:3x6:range"))
        .expect("parses")
        .execute()
        .expect("runs");
    let parallel = speculative_prefetch::parse_workload(&file("parallel:3x6:range:2"))
        .expect("parses")
        .execute()
        .expect("runs");
    assert_eq!(sequential, parallel);
    assert!(!parallel.events.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The equivalence holds across random chains, topologies,
    /// placements, seeds and thread counts — traced, so the comparison
    /// covers the event log as well as the aggregate report.
    ///
    /// `time_shape` additionally rewrites the chain's viewing times away
    /// from the integer-quantised default, stressing the event queue's
    /// tie-breaking and ordering: a **zero-quantum** shape (one constant
    /// viewing time, so pending events pile onto identical timestamps
    /// and every positive gap vanishes), a **magnitude-spread** shape
    /// (viewing times spanning `1e-3..1e3`), and a **sub-quantum
    /// jitter** shape (near-ties broken only by `1e-12`-scale offsets).
    ///
    /// `generator_pick` swaps the hand-built chain for each registered
    /// workload generator (flash crowd, diurnal, churn, fault
    /// injection), so the equivalence contract also covers generated
    /// workloads with outage windows, slow links and service spread
    /// active.
    #[test]
    fn parallel_equivalence_holds_over_random_runs(
        states in 4usize..20,
        fanout in 1usize..4,
        v_min in 1u32..4,
        v_span in 0u32..8,
        chain_seed in 0u64..10_000,
        run_seed in 0u64..10_000,
        shards in 1usize..6,
        clients in 1usize..6,
        placement_pick in 0usize..3,
        threads in 0usize..5,
        requests in 5u64..20,
        policy_pick in 0usize..3,
        time_shape in 0usize..4,
        generator_pick in 0usize..5,
    ) {
        let max_fanout = (fanout + 1).min(states - 1).max(1);
        let min_fanout = fanout.min(max_fanout);
        let chain = MarkovChain::random(
            states, min_fanout, max_fanout, v_min, v_min + v_span, chain_seed,
        ).expect("valid chain");
        let chain = match time_shape {
            0 => chain, // integer-quantised times, as generated
            shape => {
                let transitions: Vec<Vec<(usize, f64)>> =
                    (0..states).map(|i| chain.successors(i).to_vec()).collect();
                let viewing: Vec<f64> = (0..states)
                    .map(|i| match shape {
                        1 => 2.0, // zero-quantum: all gaps collapse
                        2 => 1e-3 * 7.3f64.powi((i % 7) as i32),
                        _ => 1.0 + i as f64 * 1e-12,
                    })
                    .collect();
                MarkovChain::new(transitions, viewing).expect("valid chain")
            }
        };
        let placement = [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items: states / 2 },
        ][placement_pick];
        let policy = ["skp-exact", "no-prefetch", "greedy"][policy_pick];
        let retrievals: Vec<f64> = (0..states).map(|i| 1.0 + (i % 7) as f64).collect();
        let workload = match generator_pick {
            0 => Workload::sharded(chain, requests, run_seed),
            g => {
                let spec = [
                    "flash:1.3@0.4",
                    "diurnal:6x0.8",
                    "churn:0.25/0.1",
                    "faults:out=0@5+10;slow=1x2.5;svc=1.4",
                ][g - 1];
                Workload::generated(spec, requests, run_seed)
            }
        }
        .traced(true);

        let build = |spec: String| -> RunReport {
            Engine::builder()
                .policy(policy)
                .backend_spec(&spec)
                .catalog(retrievals.clone())
                .build()
                .expect("valid session")
                .run(&workload)
                .expect("runs")
        };
        let sequential = build(format!("sharded:{shards}x{clients}:{placement}"));
        let parallel = build(format!("parallel:{shards}x{clients}:{placement}:{threads}"));
        prop_assert_eq!(sequential, parallel);
    }
}
