//! End-to-end benchmark of the speculative-prefetch workspace.
//!
//! ```text
//! e2ebench --workload <sim-large|plan-cold|serve-mix|mc-sweep> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there for
//! the metric names and units). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Earlier lines carry the host block and, when traced,
//! the per-layer self-time table; the traced run also writes a Chrome
//! trace under `.bench_out/`. See `e2ebench/README.md`.

mod mc;
mod serve_mix;
mod sim;
mod trace;
mod util;

use std::time::Instant;

use speculative_prefetch::wire::Json;

use trace::Tracer;
use util::{host_json, rss_peak_mb, Metrics, RefClock, Tally};

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub origin: Instant,
}

const WORKLOADS: [&str; 4] = ["sim-large", "plan-cold", "serve-mix", "mc-sweep"];

fn usage(why: &str) -> ! {
    eprintln!("e2ebench: {why}");
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Ctx) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> String {
        let at = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        args.get(at + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let workload = value("--workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload '{workload}'"));
    }
    let seed = value("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be an unsigned integer"));
    let seconds: f64 = value("--seconds")
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .unwrap_or_else(|| usage("--seconds must be a number in (0, 600]"));
    let traced = match value("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    (
        workload,
        Ctx {
            seed,
            seconds,
            traced,
            origin: Instant::now(),
        },
    )
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn metric_list(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| usage(&format!("BENCHMARK.json has no '{key}' list")))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| usage(&format!("a '{key}' entry lacks '{f}'")))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn main() {
    let (workload, ctx) = parse_args();
    let spec = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|e| {
        usage(&format!(
            "cannot read BENCHMARK.json in the working directory: {e}"
        ))
    });
    let spec = Json::parse(&spec).unwrap_or_else(|e| usage(&format!("BENCHMARK.json: {e}")));
    let wanted = metric_list(
        &spec,
        if ctx.traced {
            "per_layer"
        } else {
            "end_to_end"
        },
    );

    let host = host_json(ctx.seed);
    println!("host {host}");
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        ctx.seed, ctx.seconds, ctx.traced as u8
    );

    let mut tracer = Tracer::new(ctx.traced, ctx.origin, 0);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut clock = RefClock::default();
    let (tr, tl, mm, ck) = (&mut tracer, &mut tally, &mut m, &mut clock);
    match workload.as_str() {
        "sim-large" => sim::run(&sim::SIM_LARGE, &ctx, ck, tr, tl, mm),
        "plan-cold" => sim::run(&sim::PLAN_COLD, &ctx, ck, tr, tl, mm),
        "serve-mix" => serve_mix::run(&ctx, ck, tr, tl, mm),
        "mc-sweep" => mc::run(&ctx, ck, tr, tl, mm),
        _ => unreachable!("checked in parse_args"),
    }
    // End-to-end times in reference-host units (see `RefClock`); the
    // per-layer figures stay in host units. The raw figures are
    // printed too, so a result converts back to host units.
    let raw = |name: &str| m.get(name).expect("every workload measures it");
    let (setup_s, latency_ms, per_s) = (
        raw("setup_s"),
        raw("latency_p50_ms"),
        raw("throughput_per_s"),
    );
    println!(
        "raw setup_s={setup_s} latency_p50_ms={latency_ms} throughput_per_s={per_s} \
         ref_kernel_us={} ref_kernel_dropped={}",
        clock.kernel_us(),
        clock.dropped
    );
    m.set("host.ref_kernel_us", clock.kernel_us());
    m.set("setup_s", setup_s * clock.scale());
    m.set("latency_p50_ms", latency_ms * clock.scale());
    m.set("throughput_per_s", per_s / clock.scale());
    // The simulated figures are deterministic for a seed: printed in
    // both modes, so a traced and an untraced run can be compared.
    let simulated: Vec<String> = ["sim_access_mean", "sim_access_p99", "prefetch_waste_ratio"]
        .iter()
        .filter_map(|name| Some(format!("{name}={}", m.get(name)?)))
        .collect();
    println!("simulated {}", simulated.join(" "));
    m.set("rss_peak_mb", rss_peak_mb());
    m.set("error_rate", tally.error_rate());
    for note in &tally.notes {
        println!("FAILED: {note}");
    }

    if ctx.traced {
        tracer.print_table();
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{workload}-seed{}.json", ctx.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&host)))
        {
            Ok(()) => println!("chrome trace written to {}", path.display()),
            Err(e) => println!("chrome trace not written: {e}"),
        }
    }

    // Every listed metric; a per-layer metric that does not apply to
    // this workload reads 0.
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = m.get(name).unwrap_or_else(|| {
                assert!(ctx.traced, "workload {workload} did not measure {name}");
                0.0
            });
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                speculative_prefetch::wire::num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.join(",")
    );
}
