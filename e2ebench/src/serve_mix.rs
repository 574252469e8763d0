//! `serve-mix`: an in-process `skp-serve` (2 workers, default plan
//! store) driven by one process over at most 2 connections.
//!
//! The window runs `ROUNDS` rounds of a fixed open-loop schedule at
//! two rates, `LOW_RPS` and `HIGH_RPS`, then of both connections
//! sending back to back (closed loop: the daemon's capacity); then a
//! step search finds the highest rate whose p99 stays under
//! `P99_LIMIT_MS` without a growing backlog. Open-loop latency is
//! timed from when each request was due, so a stall also delays the
//! requests queued behind it. The mix is
//! drawn from the seed: ≈70% `warm` wire runs re-posting a few small
//! chains (plan-store reads), ≈20% `fresh` never-seen 300-state chains
//! (miss, solve, store write), ≈10% `traced` `.skp` bodies (workload
//! file parse, large wire renders), plus `GET /stats` and
//! `GET /metrics` scrapes at a fixed cadence. Simulation is about a
//! millisecond per request here, so HTTP, admission, wire and the
//! store dominate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use skp_serve::{ServeConfig, Server, ServerHandle};
use speculative_prefetch::wire::Json;
use speculative_prefetch::{
    http_request, parse_report, parse_workload, population_plan_key, render_report_fields,
    trace_json, MarkovChain, RunReport, WireRun,
};

use crate::trace::Tracer;
use crate::util::{median, ms_since, quantile, Metrics, RefClock, Rng, Tally};
use crate::Ctx;

/// The two fixed open-loop rates, requests per second.
pub const LOW_RPS: f64 = 60.0;
pub const HIGH_RPS: f64 = 150.0;
/// The p99 latency limit of the max-rate search.
pub const P99_LIMIT_MS: f64 = 50.0;
/// The latency a failed request counts as: far over the limit, and
/// finite, so a phase with failures still has a p50 and a p99.
const FAILED_MS: f64 = 20.0 * P99_LIMIT_MS;
/// Share of the window spent at each fixed rate, over all rounds.
const FIXED_SHARE: f64 = 0.2;
/// Share of the window spent in closed loop, over all rounds; the
/// rest searches.
const CLOSED_SHARE: f64 = 0.35;
/// Rounds the fixed-rate and closed-loop time is split into.
const ROUNDS: usize = 4;
/// Requests drawn for a closed-loop round, which stops on time.
const CLOSED_MAX: usize = 50_000;
/// Seconds per search step.
const STEP_S: f64 = 1.0;
const SCRAPE_EVERY_S: f64 = 0.5;
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const WARM_CHAINS: u64 = 4;
const TRACED_FILES: u64 = 2;
const FRESH_STATES: usize = 300;
/// At most this many fresh responses are kept and re-checked after
/// the window.
const FRESH_SAMPLES: usize = 24;
/// Set-ups per run, one before the window and the rest between its
/// phases; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Reference kernels timed before each set-up and each phase.
const REF_KERNELS: u64 = 8;
const BACKEND: &str = "sharded:4x16:hash";

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Warm(usize),
    Fresh(u64),
    Traced(usize),
    Stats,
    Metrics,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Warm(_) => "POST /run warm",
            Class::Fresh(_) => "POST /run fresh",
            Class::Traced(_) => "POST /run traced",
            Class::Stats => "GET /stats",
            Class::Metrics => "GET /metrics",
        }
    }

    fn is_run(self) -> bool {
        matches!(self, Class::Warm(_) | Class::Fresh(_) | Class::Traced(_))
    }
}

/// One request of a schedule: when it is due (seconds from the phase
/// start) and what it is.
#[derive(Clone, Copy)]
struct Due {
    at: f64,
    class: Class,
}

/// One answered (or failed) request.
struct Sample {
    class: Class,
    lag_ms: f64,
    latency_ms: f64,
    bytes: usize,
    queue_depth: Option<f64>,
    error: Option<String>,
}

/// The request bodies fixed at setup, each with the exact response
/// the daemon must give (checked once against the in-process report).
struct Bodies {
    warm: Vec<(String, String)>,
    traced: Vec<(String, String)>,
}

fn fresh_body(seed: u64) -> (WireRun, String) {
    let mut rng = Rng::stream(seed, 7);
    let chain =
        MarkovChain::random(FRESH_STATES, 2, 4, 1, 100, rng.next_u64()).expect("valid fresh chain");
    let retrievals: Vec<f64> = (0..FRESH_STATES)
        .map(|_| ((1.0 + 29.0 * rng.unit()) * 1e3).round() / 1e3)
        .collect();
    let run = WireRun::new(
        "sharded",
        BACKEND,
        "skp-exact",
        &chain,
        &retrievals,
        20,
        seed,
        false,
    );
    let body = run.render();
    (run, body)
}

fn warm_body(seed: u64, i: u64) -> String {
    let mut rng = Rng::stream(seed, 100 + i);
    let chain = MarkovChain::random(24, 2, 4, 5, 20, rng.next_u64()).expect("valid warm chain");
    let retrievals: Vec<f64> = (0..24).map(|_| rng.range(1, 9) as f64).collect();
    WireRun::new(
        "sharded",
        BACKEND,
        "skp-exact",
        &chain,
        &retrievals,
        50,
        rng.next_u64() >> 1,
        false,
    )
    .render()
}

fn traced_body(seed: u64, i: u64) -> String {
    let mut rng = Rng::stream(seed, 200 + i);
    let mut text = format!(
        "workload sharded\ntraced\nbackend {BACKEND}\npolicy skp-exact\nrequests 100\n\
         seed {}\nchain 24 4 8 2 8 {}\nv 5\n",
        rng.next_u64() >> 1,
        rng.next_u64() >> 1
    );
    for k in 0..24 {
        text.push_str(&format!("item 0.04 {} i{k}\n", rng.range(2, 13)));
    }
    text
}

/// One `/run` request class drawn from the mix.
fn draw(rng: &mut Rng) -> Class {
    let roll = rng.unit();
    if roll < 0.7 {
        Class::Warm(rng.range(0, WARM_CHAINS - 1) as usize)
    } else if roll < 0.9 {
        Class::Fresh(rng.next_u64())
    } else {
        Class::Traced(rng.range(0, TRACED_FILES - 1) as usize)
    }
}

/// The schedule for one phase: `rate` requests per second for
/// `seconds`, classes drawn from `rng`, scrapes at a fixed cadence.
fn schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<Due> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut plan: Vec<Due> = (0..n)
        .map(|i| Due {
            at: i as f64 / rate,
            class: draw(rng),
        })
        .collect();
    let scrapes = (seconds / SCRAPE_EVERY_S).floor() as usize;
    for k in 0..scrapes {
        plan.push(Due {
            at: (k as f64 + 0.5) * SCRAPE_EVERY_S,
            class: if k % 2 == 0 {
                Class::Stats
            } else {
                Class::Metrics
            },
        });
    }
    plan.sort_by(|a, b| a.at.total_cmp(&b.at));
    plan
}

/// Sends one request and checks the answer; a `/stats` answer also
/// yields the daemon's admission-queue depth. `fresh_text` is the body
/// of a fresh request, generated before it was due.
fn send(
    addr: &str,
    class: Class,
    bodies: &Bodies,
    fresh_text: Option<&str>,
    fresh: &mut Vec<(u64, String)>,
) -> (usize, Option<f64>, Result<(), String>) {
    let (method, path, body, expected) = match class {
        Class::Warm(i) => (
            "POST",
            "/run",
            Some(&*bodies.warm[i].0),
            Some(&bodies.warm[i].1),
        ),
        Class::Traced(i) => (
            "POST",
            "/run",
            Some(&*bodies.traced[i].0),
            Some(&bodies.traced[i].1),
        ),
        Class::Fresh(_) => ("POST", "/run", fresh_text, None),
        Class::Stats => ("GET", "/stats", None, None),
        Class::Metrics => ("GET", "/metrics", None, None),
    };
    let resp = match http_request(addr, method, path, body) {
        Ok(resp) => resp,
        Err(e) => return (0, None, Err(format!("{} failed: {e}", class.name()))),
    };
    let bytes = resp.body.len();
    if resp.status != 200 {
        return (
            bytes,
            None,
            Err(format!("{} answered {}", class.name(), resp.status)),
        );
    }
    let mut depth = None;
    let checked = match class {
        Class::Warm(_) | Class::Traced(_) => {
            if Some(&resp.body) == expected {
                Ok(())
            } else {
                Err(format!(
                    "{} response differs from the checked one",
                    class.name()
                ))
            }
        }
        Class::Fresh(seed) => {
            if fresh.len() < FRESH_SAMPLES && seed % 4 == 0 {
                fresh.push((seed, resp.body));
            }
            Ok(())
        }
        Class::Stats => Json::parse(&resp.body)
            .map(|stats| depth = stats.get("queue_depth").and_then(Json::as_f64))
            .map_err(|e| format!("/stats: {e}")),
        Class::Metrics => obs::prom::parse(&resp.body)
            .map(drop)
            .map_err(|e| format!("/metrics: {e}")),
    };
    (bytes, depth, checked)
}

/// What one sender thread brings back: its samples, its spans and the
/// fresh responses it kept for checking.
type SenderOut = (Vec<Sample>, Tracer, Vec<(u64, String)>);

/// Runs one phase's schedule open loop over `CONNECTIONS` senders,
/// each taking the next request when it is due, until the schedule
/// ends or `stop` (from the phase start) has passed. Returns the
/// samples and the seconds from the phase start until the last answer.
fn drive(
    rig: &Rig,
    plan: &[Due],
    ctx: &Ctx,
    first_op: u64,
    stop: Option<Duration>,
    tr: &mut Tracer,
    fresh: &mut Vec<(u64, String)>,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let stop = stop.map(|stop| start + stop);
    let results: Vec<SenderOut> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let next = &next;
                scope.spawn(move || {
                    let mut local = Tracer::new(ctx.traced, ctx.origin, 1 + c as u32);
                    let mut samples = Vec::new();
                    let mut kept = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(due) = plan.get(i) else { break };
                        if stop.is_some_and(|stop| Instant::now() >= stop) {
                            break;
                        }
                        let fresh_text = match due.class {
                            Class::Fresh(seed) => Some(fresh_body(seed).1),
                            _ => None,
                        };
                        let due_at = start + Duration::from_secs_f64(due.at);
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let lag_ms = Instant::now()
                            .saturating_duration_since(due_at)
                            .as_secs_f64()
                            * 1e3;
                        let ((bytes, queue_depth, outcome), _) =
                            local.span("serve", due.class.name(), first_op + i as u64, |_| {
                                send(
                                    &rig.addr,
                                    due.class,
                                    &rig.bodies,
                                    fresh_text.as_deref(),
                                    &mut kept,
                                )
                            });
                        samples.push(Sample {
                            class: due.class,
                            lag_ms,
                            latency_ms: Instant::now()
                                .saturating_duration_since(due_at)
                                .as_secs_f64()
                                * 1e3,
                            bytes,
                            queue_depth,
                            error: outcome.err(),
                        });
                    }
                    (samples, local, kept)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    let elapsed_s = Instant::now()
        .saturating_duration_since(start)
        .as_secs_f64();
    let mut all = Vec::new();
    for (samples, local, kept) in results {
        all.extend(samples);
        tr.absorb(local);
        for k in kept {
            if fresh.len() < FRESH_SAMPLES {
                fresh.push(k);
            }
        }
    }
    (all, elapsed_s)
}

/// One phase's `/run` latency summary; a failed request counts as
/// `FAILED_MS`, which misses any limit.
struct Summary {
    p50: f64,
    p99: f64,
    /// The largest send lag: how far the load generator fell behind.
    backlog_ms: f64,
    runs: usize,
    /// Runs answered correctly.
    ok_runs: usize,
    /// Seconds from the phase start until the last answer.
    elapsed_s: f64,
}

impl Summary {
    fn of(samples: &[Sample], elapsed_s: f64) -> Summary {
        let runs: Vec<&Sample> = samples.iter().filter(|s| s.class.is_run()).collect();
        let lat: Vec<f64> = runs
            .iter()
            .map(|s| match s.error {
                Some(_) => s.latency_ms.max(FAILED_MS),
                None => s.latency_ms,
            })
            .collect();
        Summary {
            p50: quantile(&lat, 0.5),
            p99: quantile(&lat, 0.99),
            backlog_ms: samples.iter().map(|s| s.lag_ms).fold(0.0, f64::max),
            runs: runs.len(),
            ok_runs: runs.iter().filter(|s| s.error.is_none()).count(),
            elapsed_s,
        }
    }

    fn line(&self) -> String {
        format!(
            "p50 {:.3} ms p99 {:.3} ms over {} runs",
            self.p50, self.p99, self.runs
        )
    }
}

/// p50 of the send-to-answer time of `/run` requests; a failed one
/// counts as `FAILED_MS`.
fn service_p50(samples: &[Sample]) -> f64 {
    let lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.class.is_run())
        .map(|s| match s.error {
            Some(_) => FAILED_MS,
            None => s.latency_ms - s.lag_ms,
        })
        .collect();
    median(&lat)
}

/// A running daemon with its checked bodies.
struct Rig {
    handle: ServerHandle,
    addr: String,
    bodies: Bodies,
    warm_reports: Vec<RunReport>,
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<Rig, String> {
    let cfg = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let check = |body: &str, local: &RunReport| -> Result<String, String> {
        let resp = http_request(&addr, "POST", "/run", Some(body)).map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!(
                "setup POST answered {}: {}",
                resp.status, resp.body
            ));
        }
        let served = parse_report(&resp.body).map_err(|e| e.to_string())?;
        if &served != local {
            return Err("daemon report differs from the in-process report".to_string());
        }
        Ok(resp.body)
    };
    let mut warm = Vec::new();
    let mut warm_reports = Vec::new();
    for i in 0..WARM_CHAINS {
        let body = warm_body(seed, i);
        let wire = WireRun::parse(&body).map_err(|e| e.to_string())?;
        let (mut engine, workload) = wire.instantiate().map_err(|e| e.to_string())?;
        let local = engine.run(&workload).map_err(|e| e.to_string())?;
        let expected = check(&body, &local)?;
        warm.push((body, expected));
        warm_reports.push(local);
    }
    let mut traced = Vec::new();
    for i in 0..TRACED_FILES {
        let body = traced_body(seed, i);
        let (file, _) = tr.span("scenario_file", "parse_workload", 0, |_| {
            parse_workload(&body)
        });
        let local = file
            .map_err(|e| e.to_string())?
            .execute()
            .map_err(|e| e.to_string())?;
        let expected = check(&body, &local)?;
        traced.push((body, expected));
    }
    Ok(Rig {
        handle,
        addr,
        bodies: Bodies { warm, traced },
        warm_reports,
    })
}

pub fn run(ctx: &Ctx, clock: &mut RefClock, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    // ---- setup: daemon, bodies, checked expected responses ---------
    let mut setup_s = Vec::new();
    clock.sample(REF_KERNELS);
    let t0 = Instant::now();
    let rig = setup(ctx.seed, tr).unwrap_or_else(|e| panic!("serve-mix setup failed: {e}"));
    setup_s.push(t0.elapsed().as_secs_f64());

    // ---- timed window: low, high, saturation, max-rate search ------
    let mut rng = Rng::stream(ctx.seed, 300);
    let mut fresh = Vec::new();
    // Open-loop samples; closed-loop ones are all due at once, so only
    // their send-to-answer time means anything.
    let mut all: Vec<Sample> = Vec::new();
    let mut closed_all: Vec<Sample> = Vec::new();
    let mut op = 1u64;
    let window = Instant::now();
    let setup_every_s = ctx.seconds / SETUP_REPS as f64;
    // The other set-ups run between phases, spread over the window, so
    // `setup_s` sees the host the phases see; each one's daemon is shut
    // down before the next phase. The reference kernel runs between
    // phases too, while the daemon idles; a sample during which a
    // daemon thread ran is dropped.
    let mut phase =
        |plan: Vec<Due>, stop: Option<Duration>, tr: &mut Tracer, into: &mut Vec<Sample>| {
            if setup_s.len() < SETUP_REPS
                && window.elapsed().as_secs_f64() >= setup_s.len() as f64 * setup_every_s
            {
                clock.sample(REF_KERNELS);
                let t0 = Instant::now();
                let built = setup(ctx.seed, tr);
                setup_s.push(t0.elapsed().as_secs_f64());
                tally.record(built.and_then(|again| {
                    again
                        .handle
                        .shutdown()
                        .map_err(|e| format!("shutdown: {e}"))
                }));
            }
            clock.sample(REF_KERNELS);
            let (samples, elapsed_s) = drive(&rig, &plan, ctx, op, stop, tr, &mut fresh);
            op += plan.len() as u64;
            let summary = Summary::of(&samples, elapsed_s);
            into.extend(samples);
            summary
        };
    // `ROUNDS` rounds of low, high and closed loop, so each figure
    // samples the whole window rather than one stretch of it.
    let fixed_s = ctx.seconds * FIXED_SHARE / ROUNDS as f64;
    let closed_stop = Duration::from_secs_f64(ctx.seconds * CLOSED_SHARE / ROUNDS as f64);
    let (mut low_all, mut high_all) = (Vec::new(), Vec::new());
    let (mut closed_rates, mut closed_p50s) = (Vec::new(), Vec::new());
    let (mut closed_ok, mut closed_runs) = (0, 0);
    for _ in 0..ROUNDS {
        phase(schedule(&mut rng, LOW_RPS, fixed_s), None, tr, &mut low_all);
        phase(
            schedule(&mut rng, HIGH_RPS, fixed_s),
            None,
            tr,
            &mut high_all,
        );
        // Closed loop: both connections send back to back until the
        // phase ends, so the daemon runs flat out. Its completion rate
        // and send-to-answer time track host speed far more steadily
        // than fixed-rate latency or the max-rate threshold do. Only
        // correct answers count: a daemon that fails fast is not
        // faster.
        let plan: Vec<Due> = (0..CLOSED_MAX)
            .map(|_| Due {
                at: 0.0,
                class: draw(&mut rng),
            })
            .collect();
        let from = closed_all.len();
        let closed = phase(plan, Some(closed_stop), tr, &mut closed_all);
        closed_rates.push(closed.ok_runs as f64 / closed.elapsed_s);
        closed_p50s.push(service_p50(&closed_all[from..]));
        closed_ok += closed.ok_runs;
        closed_runs += closed.runs;
    }
    let low = Summary::of(&low_all, 0.0);
    let high = Summary::of(&high_all, 0.0);
    println!("rate low {LOW_RPS} rps: {}", low.line());
    println!("rate high {HIGH_RPS} rps: {}", high.line());
    all.extend(low_all);
    all.extend(high_all);
    let fixed_n = all.len();
    let capacity = median(&closed_rates);
    let closed_p50 = median(&closed_p50s);
    println!(
        "closed loop: {capacity:.1} rps, p50 {closed_p50:.3} ms (medians of {ROUNDS} rounds) \
         over {closed_ok} correct of {closed_runs} runs"
    );

    // Max-rate search: bisect (on a log scale) between a rate known to
    // meet the p99 limit and twice the closed-loop capacity, one step a
    // second, while window time remains; a step fails on a p99 over the
    // limit or a backlog that outgrew it. The estimate interpolates, in
    // log latency, where p99 crosses the limit between the two brackets.
    let search_end = window + Duration::from_secs_f64(ctx.seconds);
    let mut lo = if high.p99 <= P99_LIMIT_MS {
        (HIGH_RPS, high.p99)
    } else {
        (LOW_RPS, low.p99)
    };
    let mut hi = ((2.0 * capacity).max(2.0 * lo.0), f64::INFINITY);
    while Instant::now() + Duration::from_secs_f64(STEP_S) <= search_end {
        let rate = (lo.0 * hi.0).sqrt();
        let step = phase(schedule(&mut rng, rate, STEP_S), None, tr, &mut all);
        let p99 = step.p99.max(step.backlog_ms);
        println!("  step {rate:.1} rps: p99 {p99:.3} ms");
        if p99 <= P99_LIMIT_MS {
            lo = (rate, p99);
        } else {
            hi = (rate, p99);
        }
    }
    let max_rate = if hi.1.is_finite() && hi.1 > lo.1 {
        let f = (P99_LIMIT_MS.ln() - lo.1.ln()) / (hi.1.ln() - lo.1.ln());
        lo.0 + (hi.0 - lo.0) * f.clamp(0.0, 1.0)
    } else {
        lo.0
    };
    println!(
        "max-rate search: {max_rate:.1} rps (bracket {:.1}..{:.1})",
        lo.0, hi.0
    );
    let window_s = window.elapsed().as_secs_f64();

    for s in all.iter().chain(&closed_all) {
        tally.record(s.error.clone().map_or(Ok(()), Err));
    }
    println!(
        "window: {} open-loop requests ({} runs) in {window_s:.3} s",
        all.len(),
        all.iter().filter(|s| s.class.is_run()).count()
    );
    // Per-class, scrape and load-generator figures come from the two
    // fixed-rate phases: search steps above capacity measure queueing.
    let fixed = &all[..fixed_n];
    let runs: Vec<&Sample> = fixed.iter().filter(|s| s.class.is_run()).collect();

    m.set("throughput_per_s", capacity);
    m.set("max_rate_rps", max_rate);
    m.set("setup_s", median(&setup_s));
    m.set("latency_p50_ms", closed_p50);
    m.set("latency_p50_ms.low", low.p50);
    m.set("latency_p99_ms.low", low.p99);
    m.set("latency_p50_ms.high", high.p50);
    m.set("latency_p99_ms.high", high.p99);
    let class_p50 = |f: fn(Class) -> bool| {
        median(
            &runs
                .iter()
                .filter(|s| f(s.class))
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    m.set(
        "serve.class_p50_ms.warm",
        class_p50(|c| matches!(c, Class::Warm(_))),
    );
    m.set(
        "serve.class_p50_ms.fresh",
        class_p50(|c| matches!(c, Class::Fresh(_))),
    );
    m.set(
        "serve.class_p50_ms.traced",
        class_p50(|c| matches!(c, Class::Traced(_))),
    );
    m.set(
        "serve.scrape_ms_p50",
        median(
            &fixed
                .iter()
                .filter(|s| !s.class.is_run())
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "loadgen.lag_ms_p99",
        quantile(&fixed.iter().map(|s| s.lag_ms).collect::<Vec<_>>(), 0.99),
    );
    m.set(
        "serve.queue_depth_max",
        all.iter().filter_map(|s| s.queue_depth).fold(0.0, f64::max),
    );
    m.set(
        "wire.response_bytes",
        median(&runs.iter().map(|s| s.bytes as f64).collect::<Vec<_>>()),
    );
    let n = rig.warm_reports.len() as f64;
    m.set(
        "sim_access_mean",
        rig.warm_reports.iter().map(|r| r.access.mean).sum::<f64>() / n,
    );
    m.set(
        "sim_access_p99",
        rig.warm_reports.iter().map(|r| r.access.p99).sum::<f64>() / n,
    );
    m.set(
        "prefetch_waste_ratio",
        rig.warm_reports
            .iter()
            .filter_map(|r| r.sharded())
            .map(|s| s.wasted_transfer / s.total_transfer.max(f64::MIN_POSITIVE))
            .sum::<f64>()
            / n,
    );

    // ---- after the window: daemon view, sampled checks, probes -----
    let client_p50 = median(&runs.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    daemon_view(&rig.addr, client_p50, tally, m);
    let op = u64::MAX;
    for (seed, body) in &fresh {
        let (wire, _) = fresh_body(*seed);
        let outcome = wire
            .instantiate()
            .and_then(|(mut engine, workload)| engine.run(&workload))
            .map_err(|e| e.to_string())
            .and_then(|local| match parse_report(body) {
                Ok(served) if served == local => Ok(()),
                Ok(_) => Err("fresh response differs from the in-process report".to_string()),
                Err(e) => Err(format!("fresh response does not parse: {e}")),
            });
        tally.record(outcome);
    }
    println!(
        "checked {} sampled fresh responses after the window",
        fresh.len()
    );
    probes(ctx.seed, &rig, op, tr, tally, m);
    rig.handle.shutdown().expect("daemon shuts down");
}

/// Reads `/stats` once after the window: the daemon's own run
/// latency, shed count, queue depth and plan-store counters.
fn daemon_view(addr: &str, client_p50: f64, tally: &mut Tally, m: &mut Metrics) {
    let stats = http_request(addr, "GET", "/stats", None)
        .map_err(|e| e.to_string())
        .and_then(|r| Json::parse(&r.body).map_err(|e| e.to_string()));
    let stats = match stats {
        Ok(stats) => stats,
        Err(e) => {
            tally.record(Err(format!("final /stats: {e}")));
            return;
        }
    };
    let num = |path: &[&str]| -> f64 {
        let mut at = &stats;
        for key in path {
            match at.get(key) {
                Some(next) => at = next,
                None => return 0.0,
            }
        }
        at.as_f64().unwrap_or(0.0)
    };
    let run_p50 = num(&["run_latency_ms", "p50"]);
    m.set("serve.run_ms_p50", run_p50);
    m.set("serve.run_ms_p99", num(&["run_latency_ms", "p99"]));
    m.set("serve.overhead_ms_p50", client_p50 - run_p50);
    m.set("serve.shed", num(&["shed"]));
    let lookups = num(&["plan_store", "lookups"]);
    m.set(
        "planstore.hit_ratio",
        num(&["plan_store", "hits"]) / lookups.max(1.0),
    );
    let tiers = stats
        .get("plan_store")
        .and_then(|p| p.get("tiers"))
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    let tier_sum = |key: &str| {
        tiers
            .iter()
            .filter_map(|t| t.get(key)?.as_f64())
            .sum::<f64>()
    };
    m.set("planstore.entries", tier_sum("entries"));
    m.set("planstore.evictions", tier_sum("evictions"));
    tally.record(Ok(()));
}

/// In-process timings of the calls the daemon makes per request, on
/// the same bodies the window posted.
fn probes(seed: u64, rig: &Rig, op: u64, tr: &mut Tracer, tally: &mut Tally, m: &mut Metrics) {
    let (traced_text, traced_resp) = &rig.bodies.traced[0];
    let t = Instant::now();
    let (file, _) = tr.span("scenario_file", "parse_workload", op, |_| {
        parse_workload(traced_text)
    });
    m.set("scenario_file.parse_ms", ms_since(t));
    let file = file.expect("checked at setup");
    let t = Instant::now();
    let (engine, _) = tr.span("engine", "build_engine", op, |_| file.build_engine());
    m.set("engine.build_ms", ms_since(t));
    let mut engine = engine.expect("checked at setup");
    let report = engine
        .run(&file.workload().expect("checked at setup"))
        .expect("checked at setup");
    let t = Instant::now();
    tr.span("wire", "render_report_fields", op, |_| {
        render_report_fields(&report, &file.labels)
    });
    m.set("wire.render_ms", ms_since(t));
    let t = Instant::now();
    let (served, _) = tr.span("wire", "parse_report", op, |_| parse_report(traced_resp));
    let (fresh, fresh_text) = fresh_body(seed);
    let (shipped, _) = tr.span("wire", "WireRun::parse", op, |_| {
        WireRun::parse(&fresh_text)
    });
    m.set("wire.parse_ms", ms_since(t));
    tally.record(match (served, shipped) {
        (Ok(served), Ok(shipped)) if served == report && shipped == fresh => Ok(()),
        _ => Err("wire parse of a traced response or a fresh body differs".to_string()),
    });
    let t = Instant::now();
    tr.span("trace_export", "trace_json", op, |_| trace_json(&report));
    m.set("trace_export.ms", ms_since(t));
    let chain = MarkovChain::new(fresh.rows.clone(), fresh.viewing.clone()).expect("valid chain");
    let t = Instant::now();
    tr.span("planstore", "population_plan_key", op, |_| {
        population_plan_key(&fresh.policy, &chain, &fresh.retrievals)
    });
    m.set("planstore.key_ms", ms_since(t));
}
