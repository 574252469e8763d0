//! `mc-sweep`: the paper's Figure 4/5 Monte-Carlo setting (n = 10
//! items, the `skewy:16` and `flat` probability panels) on
//! `monte-carlo:8x2`. Dense small-scenario solves fanned out over two
//! threads, with no event loop and no wire: the only workload for the
//! Monte-Carlo backend and for thread parallelism.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use speculative_prefetch::mc::probgen::ProbMethod;
use speculative_prefetch::{solve_exact, Engine, MonteCarloSpec, RunReport, ScenarioGen, Workload};

use crate::trace::Tracer;
use crate::util::{median, ms_since, Metrics, RefClock, Rng, Tally};
use crate::Ctx;

const ITEMS: usize = 10;
/// Scenarios per panel per operation.
const ITERATIONS: u64 = 20_000;
const CHUNKS: usize = 8;
/// Set-ups per run, one before the window and the rest spread over it;
/// `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Reference kernels timed before each set-up and each sweep.
const REF_KERNELS: u64 = 2;
/// Scenarios sampled for the per-solve probe.
const PROBE_SCENARIOS: usize = 2_000;

fn panels(seed: u64) -> [Workload; 2] {
    let mut rng = Rng::stream(seed, 45);
    [ProbMethod::skewy(), ProbMethod::flat()].map(|method| {
        Workload::monte_carlo(MonteCarloSpec {
            n_items: ITEMS,
            method,
            iterations: ITERATIONS,
            seed: rng.next_u64(),
        })
    })
}

fn engine(threads: usize, obs: &str) -> Engine {
    Engine::builder()
        .policy("skp-exact")
        .backend_spec(&format!("monte-carlo:{CHUNKS}x{threads}"))
        .obs(obs)
        .build()
        .expect("monte-carlo engine builds")
}

/// One operation: both panels.
fn sweep(
    engine: &mut Engine,
    panels: &[Workload; 2],
    op: u64,
    tr: &mut Tracer,
) -> Result<[RunReport; 2], String> {
    let mut run = |w: &Workload| {
        let (report, span) = tr.span("engine.run", "run (monte-carlo)", op, |_| engine.run(w));
        let report = report.map_err(|e| e.to_string())?;
        tr.fold_phases(span, &report.phases, op);
        match report.monte_carlo() {
            Some(section)
                if section.iterations == ITERATIONS && report.access.count == ITERATIONS =>
            {
                Ok(report)
            }
            _ => Err("monte-carlo report lacks the requested iterations".to_string()),
        }
    };
    Ok([run(&panels[0])?, run(&panels[1])?])
}

/// One set-up: the panels, an engine and one warm-up sweep, whose
/// reports every later sweep must equal.
fn set_up(
    seed: u64,
    tr: &mut Tracer,
    build_ms: &mut Vec<f64>,
) -> ([Workload; 2], Engine, Result<[RunReport; 2], String>) {
    let panels = panels(seed);
    let t = Instant::now();
    let (mut eng, _) = tr.span("engine", "build", 0, |_| engine(2, "none"));
    build_ms.push(ms_since(t));
    let reference = sweep(&mut eng, &panels, 0, tr);
    (panels, eng, reference)
}

pub fn run(ctx: &Ctx, clock: &mut RefClock, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    clock.sample(REF_KERNELS);
    let t0 = Instant::now();
    let (panels, mut eng, reference) = set_up(ctx.seed, tr, &mut build_ms);
    setup_s.push(t0.elapsed().as_secs_f64());
    let reference = reference.expect("warm-up sweep succeeds");

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut op_ms = Vec::new();
    let mut scenarios = 0u64;
    let window = Instant::now();
    let spent = clock.spent_s;
    let mut setup_spent_s = 0.0;
    let setup_every_s = ctx.seconds / SETUP_REPS as f64;
    let mut op = 0;
    while op == 0 || Instant::now() < deadline {
        // The other set-ups are spread over the window, so `setup_s`
        // sees the host the sweeps see; their time is left out of it.
        if setup_s.len() < SETUP_REPS
            && window.elapsed().as_secs_f64() >= setup_s.len() as f64 * setup_every_s
        {
            clock.sample(REF_KERNELS);
            let t0 = Instant::now();
            let (_, _, again) = set_up(ctx.seed, tr, &mut build_ms);
            setup_s.push(t0.elapsed().as_secs_f64());
            setup_spent_s += t0.elapsed().as_secs_f64();
            tally.record(match again {
                Ok(again) if again == reference => Ok(()),
                Ok(_) => Err("set-up sweep differs from the first one".to_string()),
                Err(e) => Err(e),
            });
        }
        clock.sample(REF_KERNELS);
        op += 1;
        let t = Instant::now();
        let (outcome, _) = tr.span("bench", "op", op, |tr| {
            let reports = sweep(&mut eng, &panels, op, tr)?;
            if reports != reference {
                return Err("sweep differs from the reference sweep".to_string());
            }
            scenarios += 2 * ITERATIONS;
            Ok(())
        });
        op_ms.push(ms_since(t));
        tally.record(outcome);
    }
    let window_s = window.elapsed().as_secs_f64() - (clock.spent_s - spent) - setup_spent_s;
    println!("window: {op} sweeps, {scenarios} scenarios in {window_s:.3} s");
    m.set("setup_s", median(&setup_s));
    m.set("engine.build_ms", median(&build_ms));
    let per_s = scenarios as f64 / window_s;
    m.set("throughput_per_s", per_s);
    m.set("scenarios_per_s", per_s);
    m.set("latency_p50_ms", median(&op_ms));
    m.set(
        "sim_access_mean",
        (reference[0].access.mean + reference[1].access.mean) / 2.0,
    );
    m.set(
        "sim_access_p99",
        reference[0].access.p99.max(reference[1].access.p99),
    );

    // x1 vs x2 fan-out: equal reports; their time ratio is the speed-up.
    let op = u64::MAX;
    let timed = |threads: usize, obs: &str, tr: &mut Tracer| {
        let mut eng = engine(threads, obs);
        let t = Instant::now();
        let out = sweep(&mut eng, &panels, op, tr);
        (out, ms_since(t))
    };
    let (one, one_ms) = timed(1, "none", tr);
    let (two, two_ms) = timed(2, "none", tr);
    let (observed, observed_ms) = timed(2, "memory", tr);
    tally.record(match (&one, &two, &observed) {
        (Ok(a), Ok(b), Ok(c)) if a == &reference && b == &reference && c == &reference => Ok(()),
        (Ok(_), Ok(_), Ok(_)) => Err("x1, x2 and observed sweeps differ".to_string()),
        _ => Err("a check sweep failed".to_string()),
    });
    m.set("mc.parallel_speedup", one_ms / two_ms);
    m.set("obs.trace_overhead", observed_ms / two_ms - 1.0);
    if let Ok(reports) = &observed {
        let simulate: f64 = reports
            .iter()
            .flat_map(|r| &r.phases.spans)
            .filter(|s| s.name == "simulate")
            .map(|s| s.seconds * 1e3)
            .sum();
        m.set("obs.simulate_ms", simulate);
    }

    // Per-solve cost and exact search effort on the same scenario
    // distribution.
    let solver = engine(1, "none");
    let mut rng = SmallRng::seed_from_u64(Rng::stream(ctx.seed, 46).next_u64());
    let mut solve_us = Vec::with_capacity(PROBE_SCENARIOS);
    let mut nodes = 0u64;
    for i in 0..PROBE_SCENARIOS {
        let method = if i % 2 == 0 {
            ProbMethod::skewy()
        } else {
            ProbMethod::flat()
        };
        let scenario = ScenarioGen::paper(ITEMS, method).generate(&mut rng);
        let t = Instant::now();
        tr.span("core", "Engine::plan", op, |_| solver.plan(&scenario));
        solve_us.push(t.elapsed().as_secs_f64() * 1e6);
        nodes += solve_exact(&scenario).nodes;
    }
    m.set("core.solve_us", median(&solve_us));
    m.set("core.bb_nodes", nodes as f64);
}
