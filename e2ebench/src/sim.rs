//! The two batch workloads, `sim-large` and `plan-cold`: one `.skp`
//! workload file generated from the seed, driven through
//! `parse_workload` → `build_engine` → `run` → `render_report_fields`.
//!
//! They share that path and load opposite layers. `sim-large` replays
//! the paper's Figure-7 chain (100 states) on a large sharded farm:
//! about a hundred plan solves per run against hundreds of thousands
//! of requests, so the event loop does nearly all the work.
//! `plan-cold` browses a wide chain with few requests per client on a
//! fresh engine every run, so most visits reach a state nobody has
//! solved yet and `skp-exact` dominates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use speculative_prefetch::{
    build_plan_store, parse_report, parse_workload, population_plan_key, render_report_fields,
    solve_exact, trace_json, Engine, RunReport, Scenario, Workload, WorkloadFile,
};

use crate::trace::Tracer;
use crate::util::{median, ms_since, Metrics, RefClock, Rng, Tally};
use crate::Ctx;

/// One batch workload's shape; the seed picks the chain and catalog.
pub struct Shape {
    states: usize,
    min_fanout: usize,
    max_fanout: usize,
    shards: u64,
    clients: u64,
    requests: u64,
    /// `plan-store` directive, when the file pins one.
    plan_store: Option<&'static str>,
    /// Build a fresh engine (empty plan store) for every run.
    fresh_engine: bool,
    /// Set-ups per run, one before the window and the rest spread over
    /// it; `setup_s` is their median.
    setup_reps: usize,
    /// Independently seeded files the window cycles through, so one
    /// run's figures average over several chains instead of resting on
    /// the one chain a seed happens to draw.
    variants: u64,
}

/// Figure 7 of the paper: 100 states, fan-out 10–20, v ~ U[1,100],
/// r ~ U[1,30], on a 64-shard farm with 4096 clients.
pub const SIM_LARGE: Shape = Shape {
    states: 100,
    min_fanout: 10,
    max_fanout: 20,
    shards: 64,
    clients: 4096,
    requests: 50,
    plan_store: Some("none"),
    fresh_engine: false,
    setup_reps: 41,
    variants: 16,
};

/// A wide chain, one catalog item per state, 16 clients making a few
/// requests each: nearly every visit needs a solve.
pub const PLAN_COLD: Shape = Shape {
    states: 2000,
    min_fanout: 50,
    max_fanout: 100,
    shards: 4,
    clients: 16,
    requests: 8,
    plan_store: None,
    fresh_engine: true,
    setup_reps: 15,
    variants: 8,
};

/// Reference kernels timed before each set-up and each run.
const REF_KERNELS: u64 = 2;

impl Shape {
    fn backend(&self) -> String {
        format!("sharded:{}x{}:hash", self.shards, self.clients)
    }

    /// Workload file `variant` of `seed`: chain seed, run seed and the
    /// retrieval time of every item are drawn from them.
    fn skp_text(&self, seed: u64, variant: u64) -> String {
        let mut rng = Rng::stream(seed, self.states as u64 * 100 + variant);
        let mut text = format!(
            "workload sharded\nbackend {}\npolicy skp-exact\nrequests {}\nseed {}\n\
             chain {} {} {} 1 100 {}\nv 1\n",
            self.backend(),
            self.requests,
            rng.next_u64() >> 1,
            self.states,
            self.min_fanout,
            self.max_fanout,
            rng.next_u64() >> 1,
        );
        if let Some(store) = self.plan_store {
            text.push_str(&format!("plan-store {store}\n"));
        }
        let p = 0.5 / self.states as f64;
        for i in 0..self.states {
            let r = 1.0 + 29.0 * rng.unit();
            text.push_str(&format!("item {p} {r:.3} s{i}\n"));
        }
        text
    }
}

fn chain_of(workload: &Workload) -> &speculative_prefetch::MarkovChain {
    match workload {
        Workload::Sharded(w) => &w.chain,
        _ => unreachable!("batch workloads are sharded population files"),
    }
}

/// Everything one report must satisfy on its own.
fn check_shape(shape: &Shape, report: &RunReport) -> Result<(), String> {
    let want = shape.clients * shape.requests;
    if report.access.count != want {
        return Err(format!(
            "access.count {} != clients x requests {want}",
            report.access.count
        ));
    }
    if report.sharded().is_none() {
        return Err("report has no sharded section".to_string());
    }
    Ok(())
}

fn same(what: &str, a: &RunReport, b: &RunReport) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: reports differ"))
    }
}

/// Generates, parses and builds every variant of `seed`: one set-up.
fn set_up(
    shape: &Shape,
    seed: u64,
    tr: &mut Tracer,
    parse_ms: &mut Vec<f64>,
    build_ms: &mut Vec<f64>,
) -> Vec<Variant> {
    (0..shape.variants)
        .map(|v| {
            let text = shape.skp_text(seed, v);
            let t = Instant::now();
            let (file, _) = tr.span("scenario_file", "parse_workload", 0, |_| {
                parse_workload(&text).expect("generated workload file parses")
            });
            parse_ms.push(ms_since(t));
            let t = Instant::now();
            let (engine, _) = tr.span("engine", "build_engine", 0, |_| {
                file.build_engine().expect("generated workload file builds")
            });
            build_ms.push(ms_since(t));
            let workload = file.workload().expect("generated chain is valid");
            Variant {
                file,
                workload,
                engine,
                reference: None,
            }
        })
        .collect()
}

/// One prepared variant: its file, workload, engine and, once it has
/// run, the report every later run of it must equal.
struct Variant {
    file: WorkloadFile,
    workload: Workload,
    engine: Engine,
    reference: Option<RunReport>,
}

pub fn run(
    shape: &Shape,
    ctx: &Ctx,
    clock: &mut RefClock,
    tr: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    // ---- setup: inputs, parse, build -------------------------------
    let mut setup_s = Vec::new();
    let mut parse_ms = Vec::new();
    let mut build_ms = Vec::new();
    clock.sample(REF_KERNELS);
    let t0 = Instant::now();
    let mut prepared = set_up(shape, ctx.seed, tr, &mut parse_ms, &mut build_ms);
    setup_s.push(t0.elapsed().as_secs_f64());

    // One untimed warm-up run, whose report the window's runs of the
    // first variant must equal. Its time depends on the one chain the
    // seed draws, so it stays out of `setup_s`.
    let first = &mut prepared[0];
    let (reference, _) = tr.span("engine.run", "run", 0, |_| {
        first.engine.run(&first.workload)
    });
    first.reference = Some(reference.expect("warm-up run succeeds"));

    // ---- timed window: cycle through the variants -----------------
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut op_ms = Vec::new();
    let mut run_ms = Vec::new();
    let mut render_ms = Vec::new();
    let mut response_bytes = Vec::new();
    let mut simulated = 0u64;
    let window = Instant::now();
    let spent = clock.spent_s;
    let mut setup_spent_s = 0.0;
    let setup_every_s = ctx.seconds / shape.setup_reps as f64;
    let mut op = 0;
    while op == 0 || Instant::now() < deadline {
        // The other set-ups are spread over the window, so `setup_s`
        // sees the host the runs see; their time is left out of it.
        if setup_s.len() < shape.setup_reps
            && window.elapsed().as_secs_f64() >= setup_s.len() as f64 * setup_every_s
        {
            clock.sample(REF_KERNELS);
            let t0 = Instant::now();
            let again = set_up(shape, ctx.seed, tr, &mut parse_ms, &mut build_ms);
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(again);
            setup_spent_s += t0.elapsed().as_secs_f64();
        }
        clock.sample(REF_KERNELS);
        let var = &mut prepared[(op % shape.variants) as usize];
        op += 1;
        let t_op = Instant::now();
        let (outcome, _) = tr.span("bench", "op", op, |tr| -> Result<(), String> {
            let mut fresh;
            let engine = if shape.fresh_engine {
                fresh = tr
                    .span("engine", "build_engine", op, |_| var.file.build_engine())
                    .0
                    .map_err(|e| e.to_string())?;
                &mut fresh
            } else {
                &mut var.engine
            };
            let t = Instant::now();
            let report = tr
                .span("engine.run", "run", op, |_| engine.run(&var.workload))
                .0
                .map_err(|e| e.to_string())?;
            run_ms.push(ms_since(t));
            let t = Instant::now();
            let (body, _) = tr.span("wire", "render_report_fields", op, |_| {
                render_report_fields(&report, &var.file.labels)
            });
            render_ms.push(ms_since(t));
            response_bytes.push(body.len() as f64);
            check_shape(shape, &report)?;
            simulated += report.access.count;
            match &var.reference {
                Some(reference) => same("run vs earlier run", &report, reference),
                None => {
                    var.reference = Some(report);
                    Ok(())
                }
            }
        });
        op_ms.push(ms_since(t_op));
        tally.record(outcome);
    }
    let window_s = window.elapsed().as_secs_f64() - (clock.spent_s - spent) - setup_spent_s;
    println!(
        "window: {op} runs over {} variants, {simulated} simulated requests in {window_s:.3} s",
        shape.variants
    );
    m.set("setup_s", median(&setup_s));
    m.set("scenario_file.parse_ms", median(&parse_ms));
    m.set("engine.build_ms", median(&build_ms));
    let requests_per_s = simulated as f64 / window_s;
    m.set("throughput_per_s", requests_per_s);
    m.set("requests_per_s", requests_per_s);
    m.set("latency_p50_ms", median(&op_ms));
    m.set("wire.render_ms", median(&render_ms));
    m.set("wire.response_bytes", median(&response_bytes));

    // The paper's outputs and the simulated-farm figures, from the
    // first variant: set up before the window, so they do not depend
    // on how many variants the window reached.
    let first = &prepared[0];
    let reference = first.reference.as_ref().expect("set in setup");
    let section = reference.sharded().expect("checked sharded section");
    m.set("sim_access_mean", reference.access.mean);
    m.set("sim_access_p99", reference.access.p99);
    m.set(
        "prefetch_waste_ratio",
        section.wasted_transfer / section.total_transfer.max(f64::MIN_POSITIVE),
    );
    m.set("distsys.utilisation", section.utilisation);
    m.set(
        "distsys.max_queue_depth",
        section
            .shards
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );

    check_phase(
        shape,
        &first.file,
        &first.workload,
        reference,
        median(&run_ms),
        tr,
        tally,
        m,
    );
}

/// After the window: the correctness pairs (obs off vs `memory`, cold
/// vs warm plan store, wire round trip) and the per-layer probes that
/// need runs of their own.
#[allow(clippy::too_many_arguments)]
fn check_phase(
    shape: &Shape,
    file: &WorkloadFile,
    workload: &Workload,
    reference: &RunReport,
    run_ms: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let op = u64::MAX;
    let chain = chain_of(workload);
    let catalog = &file.scenario.retrievals()[..chain.n_states()];

    // Obs off vs obs memory: same report; the observed run's phases
    // attribute its time.
    let mut observed = file.clone();
    observed.obs = Some("memory".to_string());
    let mut engine = observed.build_engine().expect("observed engine builds");
    let t = Instant::now();
    let (report, span) = tr.span("engine.run", "run (obs memory)", op, |_| {
        engine.run(workload)
    });
    let obs_ms = ms_since(t);
    match report {
        Ok(report) => {
            tally.record(same("obs off vs memory", reference, &report));
            tr.fold_phases(span, &report.phases, op);
            let phase = |name: &str| -> f64 {
                report
                    .phases
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.seconds * 1e3)
                    .sum()
            };
            m.set("obs.build_ms", phase("build"));
            m.set("obs.simulate_ms", phase("simulate"));
            m.set("obs.stat_fold_ms", phase("stat-fold"));
            m.set("obs.trace_overhead", obs_ms / run_ms - 1.0);
            let marks = &report.phases.marks;
            let events: u64 = marks.iter().map(|k| k.events).sum();
            m.set("distsys.events", events as f64);
            m.set(
                "distsys.events_per_s",
                events as f64 / (phase("simulate") / 1e3).max(1e-9),
            );
            m.set(
                "distsys.pending_peak",
                marks.iter().map(|k| k.pending).max().unwrap_or(0) as f64,
            );
            let t = Instant::now();
            let (trace, _) = tr.span("trace_export", "trace_json", op, |_| trace_json(&report));
            m.set("trace_export.ms", ms_since(t));
            if !trace.starts_with('{') {
                tally.record(Err("trace_json did not produce a JSON object".to_string()));
            }
        }
        Err(e) => tally.record(Err(format!("observed run failed: {e}"))),
    }

    // Cold vs warm on one engine with a hot store: same report; the
    // difference is the time spent planning.
    let store = build_plan_store("hot:4").expect("hot store spec");
    let mut stored = file.clone();
    stored.plan_store = None;
    let mut engine = stored
        .build_engine_with_store(Some(Arc::clone(&store)))
        .expect("stored engine builds");
    let mut timed = |name: &'static str, tr: &mut Tracer| {
        let t = Instant::now();
        let (report, _) = tr.span("engine.run", name, op, |_| engine.run(workload));
        (report, ms_since(t))
    };
    let (cold, cold_ms) = timed("run (cold store)", tr);
    let (warm, warm_ms) = timed("run (warm store)", tr);
    match (cold, warm) {
        (Ok(cold), Ok(warm)) => {
            tally.record(same("cold store vs reference", reference, &cold));
            tally.record(same("warm store vs cold store", &cold, &warm));
            let plan_ms = (cold_ms - warm_ms).max(0.0);
            m.set("plan.ms", plan_ms);
            m.set("plan.share", plan_ms / cold_ms);
            m.set("distsys.run_ms", warm_ms);
            let stats = engine.plan_store_stats();
            m.set(
                "planstore.hit_ratio",
                stats.hits as f64 / stats.lookups.max(1) as f64,
            );
            m.set(
                "planstore.entries",
                stats.tiers.iter().map(|t| t.entries).sum::<u64>() as f64,
            );
            m.set(
                "planstore.evictions",
                stats.tiers.iter().map(|t| t.evictions).sum::<u64>() as f64,
            );
        }
        (cold, warm) => tally.record(Err(format!(
            "store pair failed: cold ok={} warm ok={}",
            cold.is_ok(),
            warm.is_ok()
        ))),
    }

    // Share of planning rounds (each client's kickoff plus one per
    // request) served by an already-solved plan: the stored plan set
    // holds one entry per state the cold run solved.
    let t = Instant::now();
    let (key, _) = tr.span("planstore", "population_plan_key", op, |_| {
        population_plan_key("skp-exact", chain, file.scenario.retrievals())
    });
    m.set("planstore.key_ms", ms_since(t));
    let solved = store
        .get(key)
        .map_or(0, |set| set.plans.iter().filter(|p| p.is_some()).count());
    m.set(
        "plan.repeat_share",
        1.0 - solved as f64 / (shape.clients * (shape.requests + 1)) as f64,
    );

    // Wire round trip of the reference report.
    let body = render_report_fields(reference, &file.labels);
    let t = Instant::now();
    let (parsed, _) = tr.span("wire", "parse_report", op, |_| {
        parse_report(&format!("{{{body}}}"))
    });
    m.set("wire.parse_ms", ms_since(t));
    tally.record(match parsed {
        Ok(parsed) => same("wire round trip", reference, &parsed),
        Err(e) => Err(format!("parse_report failed: {e}")),
    });

    // Per-scenario solve cost and exact branch-and-bound effort over
    // every state of the chain.
    let engine = file.build_engine().expect("engine builds");
    let mut solve_us = Vec::with_capacity(chain.n_states());
    let mut nodes = 0u64;
    for state in 0..chain.n_states() {
        let scenario = Scenario::new(
            chain.row_probs(state),
            catalog.to_vec(),
            chain.viewing(state),
        )
        .expect("markov rows are valid scenarios");
        let t = Instant::now();
        let (plan, _) = tr.span("core", "Engine::plan", op, |_| engine.plan(&scenario));
        solve_us.push(t.elapsed().as_secs_f64() * 1e6);
        let exact = solve_exact(&scenario);
        nodes += exact.nodes;
        if plan.items() != exact.plan.items() {
            tally.record(Err(format!(
                "state {state}: skp-exact plan != solve_exact plan"
            )));
        }
    }
    m.set("core.solve_us", median(&solve_us));
    m.set("core.bb_nodes", nodes as f64);
}
