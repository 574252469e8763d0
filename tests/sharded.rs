//! Acceptance tests for the sharded backend: the `shards = 1` system
//! reproduces the legacy shared-channel backend **event for event**, and
//! sharding monotonically relieves contention on a uniform workload —
//! all driven through the unified `Engine::run` / `Workload` surface.

use speculative_prefetch::{Backend, Engine, EventKind, MarkovChain, Placement, Workload};

const N: usize = 32;

fn catalog() -> Vec<f64> {
    (0..N).map(|i| 1.0 + (i % 13) as f64).collect()
}

fn engine(backend: Backend, policy: &str) -> Engine {
    Engine::builder()
        .policy(policy)
        .backend(backend)
        .catalog(catalog())
        .build()
        .expect("valid session")
}

/// `Backend::Sharded { shards: 1 }` and the legacy `Backend::MultiClient`
/// run the identical event sequence on a seeded trace: same events, same
/// order, same simulated times — for every placement strategy and for a
/// planning (not just no-prefetch) policy.
#[test]
fn one_shard_reproduces_multi_client_event_for_event() {
    let chain = MarkovChain::random(N, 3, 6, 4, 12, 21).expect("valid chain");
    for policy in ["skp-exact", "no-prefetch"] {
        let mc_workload = Workload::multi_client(chain.clone(), 30, 1999).traced(true);
        let mut legacy = engine(Backend::MultiClient { clients: 5 }, policy);
        let legacy_run = legacy.run(&mc_workload).expect("legacy backend runs");
        let legacy_result = legacy_run.multi_client().expect("multi-client section");
        assert!(!legacy_run.events.is_empty());

        let sh_workload = Workload::sharded(chain.clone(), 30, 1999).traced(true);
        for placement in [
            Placement::Hash,
            Placement::Range,
            Placement::HotCold { hot_items: 8 },
        ] {
            let mut sharded = engine(
                Backend::Sharded {
                    shards: 1,
                    clients: 5,
                    placement,
                },
                policy,
            );
            let run = sharded.run(&sh_workload).expect("sharded backend runs");
            let report = run.sharded().expect("sharded section");
            // Exact event order, timestamps included.
            assert_eq!(
                legacy_run.events, run.events,
                "{policy}/{placement:?} diverged"
            );
            // And the aggregate reports carry the same common stats.
            assert_eq!(legacy_result.access, report.access);
            assert_eq!(legacy_run.access, run.access);
            assert_eq!(legacy_result.wasted_transfer, report.wasted_transfer);
            assert_eq!(legacy_result.total_transfer, report.total_transfer);
            assert_eq!(legacy_result.utilisation, report.utilisation);
        }
    }
}

/// On a uniform workload, growing the shard count never raises the mean
/// stall time: each extra shard adds service capacity for a disjoint
/// part of the catalog.
#[test]
fn mean_stall_time_non_increasing_in_shards() {
    // Near-uniform workload: full fan-out, short viewing times, so the
    // single channel is heavily contended and capacity dominates.
    let chain = MarkovChain::random(N, N - 1, N - 1, 2, 6, 9).expect("valid chain");
    let workload = Workload::sharded(chain, 150, 1999);
    let mut last = f64::INFINITY;
    for shards in [1usize, 2, 4, 8] {
        let report = engine(
            Backend::Sharded {
                shards,
                clients: 12,
                placement: Placement::Hash,
            },
            "skp-exact",
        )
        .run(&workload)
        .expect("runs");
        assert!(
            report.access.mean <= last + 1e-9,
            "{shards} shards: mean {} rose above {}",
            report.access.mean,
            last
        );
        assert!(report.access.p99 >= report.access.p50);
        last = report.access.mean;
    }
}

/// The single-channel and sharded reports are comparable through the
/// common stats block, and the event log is internally consistent.
#[test]
fn reports_share_the_common_stats_block() {
    let chain = MarkovChain::random(N, 3, 6, 4, 12, 3).expect("valid chain");
    let mc = engine(Backend::MultiClient { clients: 4 }, "skp-exact")
        .run(&Workload::multi_client(chain.clone(), 25, 7))
        .expect("runs");
    let sh = engine(
        Backend::Sharded {
            shards: 4,
            clients: 4,
            placement: Placement::Range,
        },
        "skp-exact",
    )
    .run(&Workload::sharded(chain.clone(), 25, 7))
    .expect("runs");
    // Same fields, same meaning: requests and orderings hold on both.
    assert_eq!(mc.access.count, sh.access.count);
    for stats in [&mc.access, &sh.access] {
        assert!(stats.min <= stats.p50 && stats.p50 <= stats.p99 && stats.p99 <= stats.max);
        assert!(stats.mean >= stats.min && stats.mean <= stats.max);
    }
    // Contention splits: the sharded run cannot be slower on average.
    assert!(sh.access.mean <= mc.access.mean + 1e-9);

    // Event-log consistency: requests alternate with services per client.
    let run = engine(
        Backend::Sharded {
            shards: 2,
            clients: 3,
            placement: Placement::Hash,
        },
        "skp-exact",
    )
    .run(&Workload::sharded(chain, 10, 7).traced(true))
    .expect("runs");
    let report = run.sharded().expect("sharded section");
    let served = run
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Served)
        .count();
    assert_eq!(served as u64, report.requests());
    for e in &run.events {
        assert!(e.shard < 2 && e.item < N && e.client < 3);
    }
}

/// FNV-1a, 64-bit: a stable digest for pinning large outputs.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn event_log_digest(events: &[speculative_prefetch::SimEvent]) -> u64 {
    use speculative_prefetch::distsys::scheduler::JobKind;
    let mut h = FNV_OFFSET;
    for e in events {
        let kind: u8 = match e.kind {
            EventKind::Request => 0,
            EventKind::Served => 1,
            EventKind::TransferStart(JobKind::Prefetch) => 2,
            EventKind::TransferStart(JobKind::Demand) => 3,
            EventKind::TransferDone(JobKind::Prefetch) => 4,
            EventKind::TransferDone(JobKind::Demand) => 5,
        };
        fnv1a(&mut h, &e.at.to_bits().to_le_bytes());
        fnv1a(&mut h, &(e.client as u64).to_le_bytes());
        fnv1a(&mut h, &(e.shard as u64).to_le_bytes());
        fnv1a(&mut h, &(e.item as u64).to_le_bytes());
        fnv1a(&mut h, &[kind]);
    }
    h
}

fn shard_stats_digest(shards: &[speculative_prefetch::ShardStats]) -> u64 {
    let mut h = FNV_OFFSET;
    for s in shards {
        fnv1a(&mut h, &(s.shard as u64).to_le_bytes());
        fnv1a(&mut h, &s.jobs.to_le_bytes());
        for x in [
            s.busy_time,
            s.utilisation,
            s.mean_queue_depth,
            s.total_transfer,
            s.outage_time,
            s.outage_delay,
            s.service_scale,
            s.stalls.sum(),
        ] {
            fnv1a(&mut h, &x.to_bits().to_le_bytes());
        }
        fnv1a(&mut h, &(s.max_queue_depth as u64).to_le_bytes());
        for &c in s.stalls.counts() {
            fnv1a(&mut h, &c.to_le_bytes());
        }
    }
    h
}

/// Large-population golden: the Figure-7 chain (100 states, fan-out
/// 10–20, v ~ U[1,100], r ~ U[1,30]) on a 64-shard farm with 4096
/// clients keeps thousands of events pending at once, far beyond the
/// small topologies above. The access block, per-shard stats and the
/// traced event log are pinned bit for bit, so any change to the event
/// queue or the scheduler that reorders a single event shows up here.
#[test]
fn figure7_chain_on_64x4096_matches_golden() {
    let chain = MarkovChain::random(100, 10, 20, 1, 100, 7).expect("valid chain");
    let mut s: u64 = 0x2545_F491_4F6C_DD1D;
    let retrievals: Vec<f64> = (0..100)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            1.0 + 29.0 * ((s >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect();
    let mut engine = Engine::builder()
        .policy("skp-exact")
        .backend(Backend::Sharded {
            shards: 64,
            clients: 4096,
            placement: Placement::Hash,
        })
        .catalog(retrievals)
        .build()
        .expect("valid session");
    let run = engine
        .run(&Workload::sharded(chain, 3, 9001).traced(true))
        .expect("runs");
    let report = run.sharded().expect("sharded section");
    let a = run.access;
    assert_eq!(a.count, 4096 * 3);
    assert_eq!(
        [a.mean, a.p50, a.p99, a.min, a.max].map(f64::to_bits),
        [
            0x40af_9385_c7eb_a3dd,
            0x40a4_95ec_e2c7_1056,
            0x40d0_e853_7080_3d95,
            0x0,
            0x40d3_bd02_a11c_353c,
        ]
    );
    assert_eq!(report.shards.len(), 64);
    assert_eq!(report.shards.iter().map(|s| s.jobs).sum::<u64>(), 59_417);
    assert_eq!(shard_stats_digest(&report.shards), 0x31ba_3609_a986_3f63);
    assert_eq!(run.events.len(), 147_453);
    assert_eq!(event_log_digest(&run.events), 0x3625_5306_59bc_92e9);
}
