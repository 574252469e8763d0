//! The one string-keyed registry of the facade.
//!
//! Six seams are configured by spec string: prefetch policies, access
//! predictors, simulation backends, plan stores, observability sinks
//! and workload generators. Each is a `static` table of [`Entry`]
//! values — name, aliases, parameter syntax, summary, constructor —
//! looked up by one `find` once one tokenizer has cut the spec
//! (`"skp-exact"`, `"network-aware:0.4"`, `"sharded:4x16:hash"`,
//! `"file:/var/cache/skp"`) at its first `:`. The CLI's
//! `--solver` and `--list`, workload files, the
//! [`SessionBuilder`](crate::engine::SessionBuilder), `skp-serve`'s
//! `GET /registry` and experiment sweeps all read these tables, so
//! adding a policy, backend or store means adding one entry, not
//! editing every consumer.
//!
//! The tables are fixed at compile time. Implementations outside them
//! plug in through the builder's instance seams instead
//! (`policy_instance`, `predictor_instance`, `backend_driver`,
//! `plan_store_instance`, `obs_instance`).

use std::sync::Arc;

use obs::{MemorySink, Obs};
use planstore::{FileStore, MemoryStore, NoneStore, PlanStore};
use skp_core::ext::{NetworkAwarePolicy, StretchPenalisedPolicy, TwoStepPolicy};
use skp_core::policy::{PolicyKind, Prefetcher};
use skp_core::skp::solve_global;
use skp_core::{PrefetchPlan, Scenario};

use crate::backend::{
    build_monte_carlo, build_multi_client, build_sharded, build_single_client, BackendDriver,
};
use crate::error::Error;
use crate::generator::{build_churn, build_diurnal, build_faults, build_flash, WorkloadGen};
use crate::predictor::{build_depgraph, build_freq, build_markov, build_ngram, Predictor};
use crate::served::build_served;

/// One registry entry: a name → constructor row plus the text the
/// listings print. `B` is the constructor's `fn` type.
pub struct Entry<B> {
    /// Canonical registry name (the part before the first `:` of a
    /// spec string).
    pub name: &'static str,
    /// Accepted shorthands (CLI compatibility: `paper`, `exact`, …).
    pub aliases: &'static [&'static str],
    /// Parameter syntax after the name, or for policies and predictors
    /// the meaning of their one numeric `:param` (empty if none).
    pub params: &'static str,
    /// One-line description for listings.
    pub summary: &'static str,
    build: B,
}

/// The entry of `table` called `name`, by canonical name or alias.
fn find<'t, B>(table: &'t [Entry<B>], name: &str) -> Option<&'t Entry<B>> {
    table
        .iter()
        .find(|e| e.name == name || e.aliases.contains(&name))
}

fn names<B>(table: &[Entry<B>]) -> Vec<&'static str> {
    table.iter().map(|e| e.name).collect()
}

// ---------------------------------------------------------------------
// The spec tokenizer and field parsers.
// ---------------------------------------------------------------------

/// Cuts a spec string at its first `:` into the trimmed registry name
/// and the raw parameter text (`None` for a bare name).
pub(crate) fn split_spec(spec: &str) -> (&str, Option<&str>) {
    match spec.split_once(':') {
        None => (spec.trim(), None),
        Some((name, rest)) => (name.trim(), Some(rest)),
    }
}

/// A malformed-parameter error pointing at the `--list` syntax.
pub(crate) fn param_err(what: &'static str, detail: String) -> Error {
    Error::InvalidParam {
        what,
        detail: format!("{detail} (see `skp-plan --list` for the syntax)"),
    }
}

/// A spec field that must be a positive integer — errors name the field
/// and the offending text, never just "cannot parse".
pub(crate) fn parse_positive(what: &'static str, field: &str, raw: &str) -> Result<usize, Error> {
    let text = raw.trim();
    match text.parse::<usize>() {
        Ok(0) => Err(param_err(
            what,
            format!("{field} must be at least 1, got '0'"),
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(param_err(
            what,
            format!("{field} '{text}' is not a positive integer"),
        )),
    }
}

/// A `<a>x<b>` field of two positive counts named `fields`; `shape` is
/// the syntax hint quoted when the `x` is missing.
pub(crate) fn parse_topology(
    what: &'static str,
    raw: &str,
    fields: (&str, &str),
    shape: &str,
) -> Result<(usize, usize), Error> {
    let text = raw.trim();
    let (a, b) = text
        .split_once('x')
        .ok_or_else(|| param_err(what, format!("topology '{text}' must be {shape}")))?;
    Ok((
        parse_positive(what, fields.0, a)?,
        parse_positive(what, fields.1, b)?,
    ))
}

/// Rejects anything after the last recognised `:`-separated field.
pub(crate) fn reject_trailing<'p>(
    what: &'static str,
    after: &'static str,
    mut parts: impl Iterator<Item = &'p str>,
) -> Result<(), Error> {
    match parts.next() {
        None => Ok(()),
        Some(junk) => Err(param_err(
            what,
            format!("trailing ':{junk}' after the {after}"),
        )),
    }
}

/// The one numeric `:param` of a policy or predictor spec.
fn parse_scalar(what: &'static str, raw: Option<&str>) -> Result<Option<f64>, Error> {
    raw.map(|raw| {
        raw.trim().parse().map_err(|_| Error::InvalidParam {
            what,
            detail: format!("'{raw}' is not a number"),
        })
    })
    .transpose()
}

// ---------------------------------------------------------------------
// Policies.
// ---------------------------------------------------------------------

/// The global DP packaged as a policy: exact on integral instances,
/// falling back to the canonical branch-and-bound otherwise (the DP
/// needs integer retrievals and viewing).
struct GlobalDpPolicy;

impl Prefetcher for GlobalDpPolicy {
    fn name(&self) -> &str {
        "SKP global DP"
    }

    fn plan_candidates(&self, s: &Scenario, candidates: &[bool]) -> PrefetchPlan {
        let all = candidates.iter().all(|&c| c);
        if all {
            if let Some(sol) = solve_global(s) {
                return sol.plan;
            }
        }
        // Candidate-restricted or non-integral: canonical exact solver.
        skp_core::skp::solve_exact_candidates(s, candidates).plan
    }
}

/// Two-step lookahead under a *persistence* forecast: the next round is
/// assumed to look like this one. [`TwoStepPolicy`] itself wants a
/// caller-supplied forecast closure; this wrapper is the sensible
/// registry default when no forecast model is wired in.
struct PersistentTwoStep {
    discount: f64,
}

impl Prefetcher for PersistentTwoStep {
    fn name(&self) -> &str {
        "SKP two-step (persistence)"
    }

    fn plan_candidates(&self, s: &Scenario, candidates: &[bool]) -> PrefetchPlan {
        let forecast = |_alpha: usize| s.clone();
        let mut two = TwoStepPolicy::new(forecast);
        two.discount = self.discount;
        two.plan_candidates(s, candidates)
    }
}

fn kind(kind: PolicyKind) -> Result<Box<dyn Prefetcher>, Error> {
    Ok(Box::new(kind))
}

fn no_param(name: &'static str, param: Option<f64>) -> Result<(), Error> {
    if param.is_some() {
        return Err(Error::InvalidParam {
            what: name,
            detail: "takes no parameter".into(),
        });
    }
    Ok(())
}

macro_rules! kind_builder {
    ($fn_name:ident, $label:literal, $kind:expr) => {
        fn $fn_name(param: Option<f64>) -> Result<Box<dyn Prefetcher>, Error> {
            no_param($label, param)?;
            kind($kind)
        }
    };
}

kind_builder!(build_no_prefetch, "no-prefetch", PolicyKind::NoPrefetch);
kind_builder!(build_kp, "kp", PolicyKind::Kp);
kind_builder!(build_kp_greedy, "kp-greedy", PolicyKind::KpGreedy);
kind_builder!(build_skp_paper, "skp-paper", PolicyKind::SkpPaper);
kind_builder!(build_skp_exact, "skp-exact", PolicyKind::SkpExact);
kind_builder!(build_skp_optimal, "skp-optimal", PolicyKind::SkpOptimal);
kind_builder!(build_perfect, "perfect", PolicyKind::Perfect);

fn build_skp_global(param: Option<f64>) -> Result<Box<dyn Prefetcher>, Error> {
    no_param("skp-global", param)?;
    Ok(Box::new(GlobalDpPolicy))
}

fn build_stretch_penalised(param: Option<f64>) -> Result<Box<dyn Prefetcher>, Error> {
    let lambda = param.unwrap_or(0.5);
    if !lambda.is_finite() || lambda < 0.0 {
        return Err(Error::InvalidParam {
            what: "stretch-penalised lambda",
            detail: format!("expected a non-negative shadow price, got {lambda}"),
        });
    }
    Ok(Box::new(StretchPenalisedPolicy::new(lambda)))
}

fn build_network_aware(param: Option<f64>) -> Result<Box<dyn Prefetcher>, Error> {
    let mu = param.unwrap_or(0.4);
    if !mu.is_finite() || mu < 0.0 {
        return Err(Error::InvalidParam {
            what: "network-aware mu",
            detail: format!("expected a non-negative usage price, got {mu}"),
        });
    }
    Ok(Box::new(NetworkAwarePolicy::new(mu)))
}

fn build_two_step(param: Option<f64>) -> Result<Box<dyn Prefetcher>, Error> {
    let discount = param.unwrap_or(1.0);
    if !discount.is_finite() || discount < 0.0 {
        return Err(Error::InvalidParam {
            what: "two-step discount",
            detail: format!("expected a non-negative discount, got {discount}"),
        });
    }
    Ok(Box::new(PersistentTwoStep { discount }))
}

// ---------------------------------------------------------------------
// Plan stores and obs sinks.
// ---------------------------------------------------------------------

/// Default capacity of a bare `hot` spec (one stripe).
const HOT_DEFAULT_CAP: usize = 256;
/// Default topology of a bare `memory` spec.
const MEMORY_DEFAULT_SHARDS: usize = 8;
const MEMORY_DEFAULT_CAP: usize = 1024;
/// Most stripes a `memory` spec may ask for: the stripes are allocated
/// up front, so an unbounded count lets one short spec exhaust memory.
const MEMORY_MAX_SHARDS: usize = 4096;
/// Default sampling rate of a bare `sampled` spec.
const SAMPLED_DEFAULT_EVERY: usize = 64;

fn build_none_store(param: Option<&str>) -> Result<Arc<dyn PlanStore>, Error> {
    match param {
        None => Ok(Arc::new(NoneStore)),
        Some(raw) => Err(param_err(
            "none plan-store spec",
            format!("takes no parameters, got ':{raw}'"),
        )),
    }
}

/// `hot[:cap]` is a one-stripe `memory` store, so it canonicalises to
/// `memory:1x<cap>` (as `sampled:1` canonicalises to `memory`).
fn build_hot(param: Option<&str>) -> Result<Arc<dyn PlanStore>, Error> {
    const WHAT: &str = "hot plan-store spec";
    let cap = match param {
        None => HOT_DEFAULT_CAP,
        Some(raw) => {
            let mut parts = raw.split(':');
            let cap = parse_positive(WHAT, "cap", parts.next().unwrap_or_default())?;
            reject_trailing(WHAT, "capacity", parts)?;
            cap
        }
    };
    Ok(Arc::new(MemoryStore::new(1, cap)))
}

fn build_memory_store(param: Option<&str>) -> Result<Arc<dyn PlanStore>, Error> {
    const WHAT: &str = "memory plan-store spec";
    let (shards, cap) = match param {
        None => (MEMORY_DEFAULT_SHARDS, MEMORY_DEFAULT_CAP),
        Some(raw) => {
            let mut parts = raw.split(':');
            let topology = parse_topology(
                WHAT,
                parts.next().unwrap_or_default(),
                ("shards", "cap"),
                "'<shards>x<cap>' (e.g. 8x1024)",
            )?;
            reject_trailing(WHAT, "topology", parts)?;
            topology
        }
    };
    if shards > MEMORY_MAX_SHARDS {
        return Err(param_err(
            WHAT,
            format!("shards must be at most {MEMORY_MAX_SHARDS}, got '{shards}'"),
        ));
    }
    Ok(Arc::new(MemoryStore::new(shards, cap)))
}

fn build_file(param: Option<&str>) -> Result<Arc<dyn PlanStore>, Error> {
    // The whole parameter is the directory (paths may contain ':'), so
    // there is no trailing-junk check to apply here.
    match param.map(str::trim) {
        None | Some("") => Err(param_err(
            "file plan-store spec",
            "needs a directory, e.g. 'file:.skp-plans'".to_string(),
        )),
        Some(dir) => Ok(Arc::new(FileStore::new(dir))),
    }
}

fn build_none_sink(param: Option<&str>) -> Result<Obs, Error> {
    match param {
        None => Ok(Obs::off()),
        Some(raw) => Err(param_err(
            "none obs spec",
            format!("takes no parameters, got ':{raw}'"),
        )),
    }
}

fn build_memory_sink(param: Option<&str>) -> Result<Obs, Error> {
    match param {
        None => Ok(Obs::from_sink(Arc::new(MemorySink::new()))),
        Some(raw) => Err(param_err(
            "memory obs spec",
            format!("takes no parameters, got ':{raw}'"),
        )),
    }
}

fn build_sampled(param: Option<&str>) -> Result<Obs, Error> {
    const WHAT: &str = "sampled obs spec";
    let every = match param {
        None => SAMPLED_DEFAULT_EVERY,
        Some(raw) => {
            let mut parts = raw.split(':');
            let every = parse_positive(WHAT, "rate", parts.next().unwrap_or_default())?;
            reject_trailing(WHAT, "sampling rate", parts)?;
            every
        }
    };
    Ok(Obs::from_sink(Arc::new(MemorySink::with_sampling(
        every as u64,
    ))))
}

// ---------------------------------------------------------------------
// The six tables.
// ---------------------------------------------------------------------

type PolicyFn = fn(Option<f64>) -> Result<Box<dyn Prefetcher>, Error>;
type PredictorFn = fn(usize, Option<f64>) -> Result<Box<dyn Predictor>, Error>;
/// A constructor from the raw parameter text after the first `:`.
type SpecFn<T> = fn(Option<&str>) -> Result<T, Error>;
type BackendFn = SpecFn<Arc<dyn BackendDriver>>;
type PlanStoreFn = SpecFn<Arc<dyn PlanStore>>;
type ObsFn = SpecFn<Obs>;
type GeneratorFn = SpecFn<Arc<dyn WorkloadGen>>;

static POLICIES: &[Entry<PolicyFn>] = &[
    Entry {
        name: "no-prefetch",
        aliases: &["none"],
        params: "",
        summary: "never prefetch; every access is a demand fetch",
        build: build_no_prefetch,
    },
    Entry {
        name: "kp",
        aliases: &[],
        params: "",
        summary: "0/1-knapsack selection that never stretches (paper's KP prefetch)",
        build: build_kp,
    },
    Entry {
        name: "kp-greedy",
        aliases: &["greedy"],
        params: "",
        summary: "greedy density-order knapsack heuristic",
        build: build_kp_greedy,
    },
    Entry {
        name: "skp-paper",
        aliases: &["paper"],
        params: "",
        summary: "the paper's Figure-3 SKP branch-and-bound, verbatim bookkeeping",
        build: build_skp_paper,
    },
    Entry {
        name: "skp-exact",
        aliases: &["exact"],
        params: "",
        summary: "canonical-space SKP with corrected Theorem-3 bookkeeping",
        build: build_skp_exact,
    },
    Entry {
        name: "skp-global",
        aliases: &["global"],
        params: "",
        summary:
            "pseudo-polynomial global DP on integral instances (falls back to skp-exact otherwise)",
        build: build_skp_global,
    },
    Entry {
        name: "skp-optimal",
        aliases: &["optimal"],
        params: "",
        summary: "exhaustive SKP optimum — ground truth for small n",
        build: build_skp_optimal,
    },
    Entry {
        name: "perfect",
        aliases: &["oracle"],
        params: "",
        summary: "oracle that prefetches exactly the realised request",
        build: build_perfect,
    },
    Entry {
        name: "stretch-penalised",
        aliases: &["lookahead"],
        params: "shadow price lambda (default 0.5)",
        summary: "SKP with stretch intrusion priced at a shadow price lambda",
        build: build_stretch_penalised,
    },
    Entry {
        name: "network-aware",
        aliases: &["netaware"],
        params: "usage price mu (default 0.4)",
        summary: "SKP taxing expected wasted retrieval at price mu",
        build: build_network_aware,
    },
    Entry {
        name: "two-step",
        aliases: &["twostep"],
        params: "discount gamma on the next round's value (default 1)",
        summary: "two-step lookahead over a persistence forecast of the next round",
        build: build_two_step,
    },
];

static PREDICTORS: &[Entry<PredictorFn>] = &[
    Entry {
        name: "ngram",
        aliases: &[],
        params: "context order k (default 2)",
        summary: "online order-k Markov (PPM-flavoured) predictor",
        build: build_ngram,
    },
    Entry {
        name: "depgraph",
        aliases: &[],
        params: "observation window w (default 2)",
        summary: "Padmanabhan–Mogul dependency-graph predictor",
        build: build_depgraph,
    },
    Entry {
        name: "markov",
        aliases: &[],
        params: "smoothing alpha (default 0.5)",
        summary: "first-order Markov row estimator with add-alpha smoothing",
        build: build_markov,
    },
    Entry {
        name: "freq",
        aliases: &[],
        params: "",
        summary: "IRM-style empirical access-frequency forecast",
        build: build_freq,
    },
];

static BACKENDS: &[Entry<BackendFn>] = &[
    Entry {
        name: "single-client",
        aliases: &[],
        params: "",
        summary: "one client on a private FIFO channel (the paper's model; the default)",
        build: build_single_client,
    },
    Entry {
        name: "multi-client",
        aliases: &[],
        params: "clients",
        summary: "population sharing one FIFO server channel (sharded with 1 shard)",
        build: build_multi_client,
    },
    Entry {
        name: "sharded",
        aliases: &[],
        params: "shards x clients : placement (hash|range|hot-cold@K)",
        summary: "catalog partitioned across N server shards, one FIFO channel each",
        build: build_sharded,
    },
    Entry {
        name: "monte-carlo",
        aliases: &[],
        params: "chunks x threads (0 threads = auto)",
        summary: "deterministic parallel Monte-Carlo over random scenarios",
        build: build_monte_carlo,
    },
    // The registry seam stretched across a socket: population runs are
    // serialised, posted to a running skp-serve daemon and the report
    // parsed back — bit-identical to running the inner backend
    // in-process (pinned by crates/serve/tests).
    Entry {
        name: "served",
        aliases: &[],
        params: "host : port : inner-backend-spec",
        summary: "ships population runs to a running skp-serve daemon \
                  (bit-identical to the inner backend in-process)",
        build: build_served,
    },
];

static PLAN_STORES: &[Entry<PlanStoreFn>] = &[
    Entry {
        name: "none",
        aliases: &[],
        params: "",
        summary: "null store: never hits, never retains (opts a session out of plan reuse)",
        build: build_none_store,
    },
    Entry {
        name: "hot",
        aliases: &[],
        params: ":cap",
        summary: "shorthand for memory:1x<cap>, a one-stripe LRU (default cap 256)",
        build: build_hot,
    },
    Entry {
        name: "memory",
        aliases: &[],
        params: ":SxC",
        summary: "sharded lock-striped LRU, S stripes of C entries (default 8x1024)",
        build: build_memory_store,
    },
    Entry {
        name: "file",
        aliases: &[],
        params: ":dir",
        summary: "persistent one-file-per-key store; plans survive restarts bit-exactly",
        build: build_file,
    },
];

static OBS_SINKS: &[Entry<ObsFn>] = &[
    Entry {
        name: "none",
        aliases: &[],
        params: "",
        summary: "no-op sink: every instrument is a branch-on-null no-op (the default)",
        build: build_none_sink,
    },
    Entry {
        name: "memory",
        aliases: &[],
        params: "",
        summary: "in-process sink: relaxed-atomic counters/gauges + fixed-bucket time histograms",
        build: build_memory_sink,
    },
    Entry {
        name: "sampled",
        aliases: &[],
        params: ":N",
        summary:
            "memory sink recording 1-in-N histogram observations (default 64); counters stay exact",
        build: build_sampled,
    },
];

static GENERATORS: &[Entry<GeneratorFn>] = &[
    Entry {
        name: "flash",
        aliases: &[],
        params: "zipf-s @ drift (0@0 = uniform baseline)",
        summary: "flash crowd: Zipf-skewed popularity around a drifting hot set",
        build: build_flash,
    },
    Entry {
        name: "diurnal",
        aliases: &[],
        params: "period x amplitude (amplitude in [0,1))",
        summary: "sinusoidal arrival-rate modulation over a forward catalog cycle",
        build: build_diurnal,
    },
    Entry {
        name: "churn",
        aliases: &[],
        params: "join-rate / leave-rate (both in [0,1])",
        summary: "sessions joining and leaving mid-run through a long-viewing lobby",
        build: build_churn,
    },
    Entry {
        name: "faults",
        aliases: &[],
        params: "out=<shard>@<start>+<dur>; slow=<shard>x<factor>; svc=<spread>",
        summary: "uniform baseline chain + shard outages, slow links, service spread",
        build: build_faults,
    },
];

/// Every registered policy, in stable order.
pub fn policy_specs() -> &'static [Entry<PolicyFn>] {
    POLICIES
}

/// Every registered predictor family, in stable order.
pub fn predictor_specs() -> &'static [Entry<PredictorFn>] {
    PREDICTORS
}

/// Every registered backend, in stable order.
pub fn backend_specs() -> &'static [Entry<BackendFn>] {
    BACKENDS
}

/// Every registered plan-store kind, in stable order.
pub fn plan_store_specs() -> &'static [Entry<PlanStoreFn>] {
    PLAN_STORES
}

/// Every registered obs-sink kind, in stable order.
pub fn obs_sink_specs() -> &'static [Entry<ObsFn>] {
    OBS_SINKS
}

/// Every registered workload generator, in stable order.
pub fn generator_specs() -> &'static [Entry<GeneratorFn>] {
    GENERATORS
}

/// Names of every registered policy, in registry order.
pub fn policy_names() -> Vec<&'static str> {
    names(POLICIES)
}

/// Names of every registered predictor family, in registry order.
pub fn predictor_names() -> Vec<&'static str> {
    names(PREDICTORS)
}

/// Names of every registered backend, in registry order.
pub fn backend_names() -> Vec<&'static str> {
    names(BACKENDS)
}

/// Names of every registered plan-store kind, in registry order.
pub fn plan_store_names() -> Vec<&'static str> {
    names(PLAN_STORES)
}

/// Names of every registered obs-sink kind, in registry order.
pub fn obs_sink_names() -> Vec<&'static str> {
    names(OBS_SINKS)
}

/// Names of every registered workload generator, in registry order.
pub fn generator_names() -> Vec<&'static str> {
    names(GENERATORS)
}

/// Builds a policy from a spec string: a registry name or alias with an
/// optional `:param` suffix, e.g. `"skp-exact"`, `"paper"`,
/// `"network-aware:0.25"`.
pub fn build_policy(spec: &str) -> Result<Box<dyn Prefetcher>, Error> {
    let (name, raw) = split_spec(spec);
    let param = parse_scalar("policy parameter", raw)?;
    match find(POLICIES, name) {
        Some(entry) => (entry.build)(param),
        None => Err(Error::UnknownPolicy {
            name: name.to_string(),
            known: policy_names(),
        }),
    }
}

/// Builds a predictor over `n_items` from a spec string: a registry
/// name with an optional `:param` suffix, e.g. `"ngram"`, `"ngram:3"`,
/// `"markov:0.1"`.
pub fn build_predictor(spec: &str, n_items: usize) -> Result<Box<dyn Predictor>, Error> {
    let (name, raw) = split_spec(spec);
    let param = parse_scalar("predictor parameter", raw)?;
    match find(PREDICTORS, name) {
        Some(entry) => (entry.build)(n_items, param),
        None => Err(Error::UnknownPredictor {
            name: name.to_string(),
            known: predictor_names(),
        }),
    }
}

/// Builds a backend driver from a spec string: a registry name with an
/// optional `:params` suffix, e.g. `"single-client"`,
/// `"multi-client:16"`, `"sharded:4x16:hash"`, `"monte-carlo:8x0"`.
pub fn build_backend(spec: &str) -> Result<Arc<dyn BackendDriver>, Error> {
    build(BACKENDS, spec, |name| Error::UnknownBackend {
        name: name.to_string(),
        known: backend_names(),
    })
}

/// Builds a plan store from a spec string, e.g. `"memory:8x1024"`,
/// `"file:.skp-plans"`, or `"hot:256"` (shorthand for
/// `"memory:1x256"`, which is the canonical spec it reports).
pub fn build_plan_store(spec: &str) -> Result<Arc<dyn PlanStore>, Error> {
    build(PLAN_STORES, spec, |name| {
        unknown("plan store spec", "plan store", name, PLAN_STORES)
    })
}

/// Builds an observability handle from a spec string, e.g. `"none"`,
/// `"memory"`, `"sampled:64"`.
pub fn build_obs(spec: &str) -> Result<Obs, Error> {
    build(OBS_SINKS, spec, |name| {
        unknown("obs spec", "obs sink", name, OBS_SINKS)
    })
}

/// Builds a workload generator from a spec string, e.g.
/// `"flash:1.2@0.5"`, `"diurnal:24x0.5"`, `"churn:0.2/0.05"`,
/// `"faults:out=1@40+20;svc=1.2"`.
pub fn build_generator(spec: &str) -> Result<Arc<dyn WorkloadGen>, Error> {
    build(GENERATORS, spec, |name| {
        unknown("workload generator spec", "generator", name, GENERATORS)
    })
}

/// Splits `spec`, finds its entry and runs the constructor on the
/// parameter text; `miss` builds the unknown-name error.
fn build<T>(
    table: &[Entry<SpecFn<T>>],
    spec: &str,
    miss: impl FnOnce(&str) -> Error,
) -> Result<T, Error> {
    let (name, param) = split_spec(spec);
    match find(table, name) {
        Some(entry) => (entry.build)(param),
        None => Err(miss(name)),
    }
}

fn unknown<B>(what: &'static str, kind: &str, name: &str, table: &[Entry<B>]) -> Error {
    Error::InvalidParam {
        what,
        detail: format!(
            "unknown {kind} '{name}' (known: {})",
            names(table).join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skp_core::gain::gain_empty_cache;

    fn scenario() -> Scenario {
        Scenario::new(
            vec![0.3, 0.25, 0.2, 0.15, 0.1],
            vec![7.0, 4.0, 12.0, 2.0, 9.0],
            11.0,
        )
        .unwrap()
    }

    fn store_err(spec: &str) -> String {
        build_plan_store(spec).err().expect("must fail").to_string()
    }

    fn sink_err(spec: &str) -> String {
        build_obs(spec).expect_err("must fail").to_string()
    }

    #[test]
    fn registry_has_at_least_six_policies() {
        assert!(policy_names().len() >= 6, "{:?}", policy_names());
    }

    #[test]
    fn every_policy_and_alias_builds_and_plans() {
        let s = scenario();
        for spec in policy_specs() {
            for name in std::iter::once(&spec.name).chain(spec.aliases) {
                let p = build_policy(name).unwrap_or_else(|e| panic!("{name}: {e}"));
                let plan = p.plan(&s);
                assert!(
                    gain_empty_cache(&s, plan.items()).is_finite(),
                    "{name} produced a non-finite gain"
                );
            }
        }
    }

    #[test]
    fn global_dp_matches_optimal_on_integral_instances() {
        let s = scenario();
        let g_global = gain_empty_cache(&s, build_policy("skp-global").unwrap().plan(&s).items());
        let g_opt = gain_empty_cache(&s, build_policy("skp-optimal").unwrap().plan(&s).items());
        assert!((g_global - g_opt).abs() < 1e-9);
    }

    #[test]
    fn parameters_change_behaviour() {
        // A prohibitive network price suppresses all prefetching.
        let s = scenario();
        let cheap = build_policy("network-aware:0.0").unwrap().plan(&s);
        let dear = build_policy("network-aware:1e9").unwrap().plan(&s);
        assert!(dear.is_empty(), "mu = 1e9 must suppress prefetching");
        assert!(!cheap.is_empty(), "mu = 0 reduces to plain SKP");
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(matches!(
            build_policy("magic"),
            Err(Error::UnknownPolicy { .. })
        ));
        assert!(build_policy("kp:1").is_err());
        assert!(build_policy("network-aware:-2").is_err());
        assert!(build_policy("stretch-penalised:abc").is_err());
    }

    #[test]
    fn names_and_aliases_are_unique() {
        fn unique<B>(table: &[Entry<B>]) {
            let mut seen = std::collections::HashSet::new();
            for entry in table {
                assert!(seen.insert(entry.name), "duplicate {}", entry.name);
                for a in entry.aliases {
                    assert!(seen.insert(a), "duplicate alias {a}");
                }
            }
        }
        unique(policy_specs());
        unique(predictor_specs());
        unique(backend_specs());
        unique(plan_store_specs());
        unique(obs_sink_specs());
        unique(generator_specs());
    }

    #[test]
    fn builtin_specs_build_and_round_trip() {
        for (spec, canonical) in [
            ("none", "none"),
            // `hot` is shorthand for a one-stripe memory store
            ("hot", "memory:1x256"),
            ("hot:4", "memory:1x4"),
            ("memory", "memory:8x1024"),
            ("memory:2x64", "memory:2x64"),
            ("file:/tmp/skp-plans", "file:/tmp/skp-plans"),
        ] {
            let store = build_plan_store(spec).expect(spec);
            assert_eq!(store.spec_string(), canonical, "spec {spec}");
            // The canonical string is a fixed point of the registry.
            let again = build_plan_store(&store.spec_string()).expect(canonical);
            assert_eq!(again.spec_string(), canonical);
        }
    }

    #[test]
    fn sink_specs_build_and_round_trip() {
        for (spec, canonical) in [
            ("none", "none"),
            ("memory", "memory"),
            ("sampled", "sampled:64"),
            ("sampled:8", "sampled:8"),
            // sampling every observation is the exact memory sink
            ("sampled:1", "memory"),
        ] {
            let obs = build_obs(spec).expect(spec);
            assert_eq!(obs.spec_string(), canonical, "spec {spec}");
            // The canonical string is a fixed point of the registry.
            let again = build_obs(&obs.spec_string()).expect(canonical);
            assert_eq!(again.spec_string(), canonical);
        }
    }

    #[test]
    fn unknown_store_lists_the_known_names() {
        let msg = store_err("quantum:9");
        assert!(msg.contains("unknown plan store 'quantum'"), "{msg}");
        assert!(msg.contains("(known: none, hot, memory, file)"), "{msg}");
    }

    #[test]
    fn zero_capacities_are_rejected() {
        let msg = store_err("hot:0");
        assert!(msg.contains("cap must be at least 1, got '0'"), "{msg}");
        let msg = store_err("memory:0x5");
        assert!(msg.contains("shards must be at least 1, got '0'"), "{msg}");
        let msg = store_err("memory:4x0");
        assert!(msg.contains("cap must be at least 1, got '0'"), "{msg}");
    }

    #[test]
    fn non_numeric_fields_are_rejected() {
        let msg = store_err("hot:many");
        assert!(msg.contains("'many' is not a positive integer"), "{msg}");
        let msg = store_err("memory:8xbig");
        assert!(msg.contains("'big' is not a positive integer"), "{msg}");
    }

    #[test]
    fn malformed_topologies_are_rejected() {
        let msg = store_err("memory:8");
        assert!(msg.contains("must be '<shards>x<cap>'"), "{msg}");
        let msg = store_err("memory:");
        assert!(msg.contains("must be '<shards>x<cap>'"), "{msg}");
    }

    #[test]
    fn trailing_junk_is_rejected() {
        let msg = store_err("hot:8:junk");
        assert!(msg.contains("trailing ':junk' after the capacity"), "{msg}");
        let msg = store_err("memory:2x4:junk");
        assert!(msg.contains("trailing ':junk' after the topology"), "{msg}");
        let msg = store_err("none:x");
        assert!(msg.contains("takes no parameters, got ':x'"), "{msg}");
    }

    #[test]
    fn sink_trailing_junk_is_rejected() {
        let msg = sink_err("sampled:8:junk");
        assert!(
            msg.contains("trailing ':junk' after the sampling rate"),
            "{msg}"
        );
        let msg = sink_err("none:x");
        assert!(msg.contains("takes no parameters, got ':x'"), "{msg}");
        let msg = sink_err("memory:4");
        assert!(msg.contains("takes no parameters, got ':4'"), "{msg}");
    }

    #[test]
    fn file_requires_a_directory() {
        assert!(store_err("file").contains("needs a directory"));
        assert!(store_err("file:").contains("needs a directory"));
    }

    /// There is no composite store: `tiered` is an unknown name.
    #[test]
    fn tiered_specs_are_unknown_stores() {
        for spec in ["tiered", "tiered:hot:8,memory:2x4"] {
            let msg = store_err(spec);
            assert!(msg.contains("unknown plan store 'tiered'"), "{msg}");
            assert!(msg.contains("(known: none, hot, memory, file)"), "{msg}");
        }
    }

    #[test]
    fn every_error_points_at_the_listing() {
        for spec in ["hot:0", "memory:3", "none:x", "file", "hot:1:x"] {
            assert!(
                store_err(spec).contains("see `skp-plan --list`"),
                "{spec} error lacks the listing pointer"
            );
        }
    }

    #[test]
    fn every_sink_error_points_at_the_listing() {
        for spec in ["sampled:0", "sampled:x:y", "none:x", "memory:8"] {
            assert!(
                sink_err(spec).contains("see `skp-plan --list`"),
                "{spec} error lacks the listing pointer"
            );
        }
    }

    #[test]
    fn none_is_detached_and_memory_is_attached() {
        assert!(!build_obs("none").unwrap().enabled());
        assert!(build_obs("memory").unwrap().enabled());
        assert!(build_obs("sampled:64").unwrap().enabled());
    }

    #[test]
    fn unknown_sink_lists_the_known_names() {
        let msg = sink_err("statsd:9");
        assert!(msg.contains("unknown obs sink 'statsd'"), "{msg}");
        for name in ["none", "memory", "sampled"] {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
    }

    #[test]
    fn zero_and_non_numeric_rates_are_rejected() {
        let msg = sink_err("sampled:0");
        assert!(msg.contains("rate must be at least 1, got '0'"), "{msg}");
        let msg = sink_err("sampled:often");
        assert!(msg.contains("'often' is not a positive integer"), "{msg}");
        let msg = sink_err("sampled:");
        assert!(msg.contains("'' is not a positive integer"), "{msg}");
    }

    /// Stripe counts and n-gram orders size an up-front allocation, so
    /// both are capped before a short spec can ask for ~10^12 elements.
    #[test]
    fn allocation_sizing_fields_are_bounded() {
        assert!(build_plan_store("memory:4096x1").is_ok());
        let msg = store_err("memory:4097x1");
        assert!(
            msg.contains("shards must be at most 4096, got '4097'"),
            "{msg}"
        );
        let msg = store_err("memory:1000000000000x1");
        assert!(msg.contains("shards must be at most 4096"), "{msg}");
        // An `InvalidParam`, which `skp-serve` answers with a 400.
        let err = build_plan_store("memory:1000000000000x1");
        assert!(matches!(err, Err(Error::InvalidParam { .. })));

        assert!(build_predictor("ngram:64", 8).is_ok());
        for spec in ["ngram:65", "ngram:1000000000000"] {
            let msg = build_predictor(spec, 8).err().expect(spec).to_string();
            assert!(
                msg.contains("ngram order: must be at most 64"),
                "{spec}: {msg}"
            );
        }
    }

    /// Every name in every table, aliases included.
    fn all_names() -> Vec<&'static str> {
        fn of<B>(table: &[Entry<B>]) -> impl Iterator<Item = &'static str> + '_ {
            table
                .iter()
                .flat_map(|e| std::iter::once(e.name).chain(e.aliases.iter().copied()))
        }
        of(policy_specs())
            .chain(of(predictor_specs()))
            .chain(of(backend_specs()))
            .chain(of(plan_store_specs()))
            .chain(of(obs_sink_specs()))
            .chain(of(generator_specs()))
            .collect()
    }

    /// Feeds one spec to all six builders: each must return, never
    /// panic or abort. Building does no I/O (`file:` does not touch
    /// disk, `served:` does not connect), so any input is safe.
    fn build_all(spec: &str) {
        let _ = build_policy(spec);
        let _ = build_predictor(spec, 8);
        let _ = build_backend(spec);
        let _ = build_plan_store(spec);
        let _ = build_obs(spec);
        let _ = build_generator(spec);
    }

    proptest! {
        #[test]
        fn spec_builders_never_panic(
            noise in ".{0,40}",
            pick in 0usize..1000,
            tail in ".{0,40}",
            ints in (prop_oneof![0u64..=9, 0u64..=u64::MAX], prop_oneof![0u64..=9, 0u64..=u64::MAX]),
            floats in (prop_oneof![-10.0f64..10.0, -1e300f64..1e300], prop_oneof![0.0f64..10.0, 0.0f64..1e300]),
        ) {
            let names = all_names();
            let name = names[pick % names.len()];
            let (n, m) = ints;
            let (x, y) = floats;
            let specs = [
                noise.clone(),
                format!("{name}{tail}"),
                format!("{name}:{tail}"),
                format!("{name}:{n}"),
                format!("{name}:{n}x{m}"),
                format!("{name}:{n}x{m}:{tail}"),
                format!("{name}:{x}"),
                format!("{name}:{x}@{y}"),
                format!("{name}:{x}x{y}"),
                format!("{name}:{x}/{y}"),
                format!("{name}:out={n}@{x}+{y};slow={m}x{y};svc={x}"),
                format!("served:h:{n}:{name}:{n}x{m}:{tail}"),
                format!("served:h:1:served:{tail}"),
            ];
            for spec in &specs {
                build_all(spec);
            }
        }
    }
}
