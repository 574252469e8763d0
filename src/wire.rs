//! The wire format shared by `skp-plan --format json` and `skp-serve`.
//!
//! Everything here is hand-rolled on `std` — the offline workspace has
//! no serde — and split into three layers:
//!
//! 1. **Encoding helpers** ([`esc`], [`num`], [`list`]) and a small
//!    recursive-descent [`Json`] parser. Numbers keep their *raw token
//!    text* so 64-bit seeds survive parsing without being squeezed
//!    through `f64` (which only holds 53 bits of integer precision).
//! 2. **Report rendering and parsing**: [`render_report_fields`] emits
//!    the `"access"` / `"section_kind"` / `"section"` / `"events"`
//!    fragment both the CLI and the daemon embed in their responses,
//!    and [`parse_report`] rebuilds a [`RunReport`] from it. Population
//!    sections (multi-client, sharded) round-trip **bit-identically**:
//!    `f64` values are printed with Rust's shortest-round-trip `Display`
//!    and re-parsed with `str::parse`, which restores the exact bits.
//!    Plan, trace and Monte-Carlo sections are render-only (their
//!    statistics carry private accumulator state that has no business
//!    on the wire).
//! 3. **Workload shipping**: [`WireRun`] is the population workload a
//!    `served:` backend posts to a daemon — policy and inner-backend
//!    registry specs, the retrieval catalog, and the Markov chain as
//!    explicit rows so the daemon rebuilds the *identical* chain and
//!    replays the identical simulation.

use access_model::MarkovChain;
use distsys::multiclient::MultiClientResult;
use distsys::scheduler::{EventKind, JobKind, ShardReport, ShardStats, SimEvent};
use distsys::stats::{AccessStats, Histogram};

use crate::engine::Engine;
use crate::error::Error;
use crate::report::{ReportSection, RunReport};
use crate::workload::Workload;

// ---------------------------------------------------------------------
// Encoding helpers.
// ---------------------------------------------------------------------

/// Escapes a string for inclusion inside a JSON string literal.
pub fn esc(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite `f64` with Rust's shortest-round-trip `Display`
/// (re-parsing restores the exact bits); non-finite values become
/// `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders a slice as a JSON array using `f` for each element.
pub fn list<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    let parts: Vec<String> = items.iter().map(f).collect();
    format!("[{}]", parts.join(","))
}

// ---------------------------------------------------------------------
// A minimal JSON value and parser.
// ---------------------------------------------------------------------

/// A parsed JSON value.
///
/// Numbers are kept as their raw source token ([`Json::Num`]) and only
/// converted on demand, so `u64` seeds and exact `f64` bit patterns are
/// both recoverable from the same parse.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as key/value pairs in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, Error> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
        .document()
    }

    /// Looks up `key` in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number re-parsed as `f64` (exact for values printed by
    /// [`num`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number re-parsed as `u64` from its raw token, so integers
    /// beyond 2⁵³ keep every bit.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: impl Into<String>) -> Error {
        Error::InvalidParam {
            what: "wire JSON",
            detail: format!("at byte {}: {}", self.pos, detail.into()),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn document(&mut self) -> Result<Json, Error> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data after document"));
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let raw = &self.text[start..self.pos];
        if raw.parse::<f64>().is_err() {
            return Err(self.err(format!("bad number '{raw}'")));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let Some(c) = rest.chars().next() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(e) = self.text[self.pos..].chars().next() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += e.len_utf8();
                    match e {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        other => return Err(self.err(format!("unknown escape '\\{other}'"))),
                    }
                }
                c if (c as u32) < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                c => out.push(c),
            }
        }
    }

    fn array(&mut self) -> Result<Json, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Typed field extraction (errors name the missing/bad field).
// ---------------------------------------------------------------------

fn field<'a>(obj: &'a Json, key: &str, what: &'static str) -> Result<&'a Json, Error> {
    obj.get(key).ok_or_else(|| Error::InvalidParam {
        what,
        detail: format!("missing field '{key}'"),
    })
}

fn bad(what: &'static str, key: &str, expected: &str) -> Error {
    Error::InvalidParam {
        what,
        detail: format!("field '{key}' must be {expected}"),
    }
}

fn field_f64(obj: &Json, key: &str, what: &'static str) -> Result<f64, Error> {
    field(obj, key, what)?
        .as_f64()
        .ok_or_else(|| bad(what, key, "a finite number"))
}

fn field_u64(obj: &Json, key: &str, what: &'static str) -> Result<u64, Error> {
    field(obj, key, what)?
        .as_u64()
        .ok_or_else(|| bad(what, key, "an unsigned integer"))
}

fn field_usize(obj: &Json, key: &str, what: &'static str) -> Result<usize, Error> {
    field_u64(obj, key, what).map(|v| v as usize)
}

fn field_str<'a>(obj: &'a Json, key: &str, what: &'static str) -> Result<&'a str, Error> {
    field(obj, key, what)?
        .as_str()
        .ok_or_else(|| bad(what, key, "a string"))
}

fn field_bool(obj: &Json, key: &str, what: &'static str) -> Result<bool, Error> {
    field(obj, key, what)?
        .as_bool()
        .ok_or_else(|| bad(what, key, "a boolean"))
}

fn field_arr<'a>(obj: &'a Json, key: &str, what: &'static str) -> Result<&'a [Json], Error> {
    field(obj, key, what)?
        .as_arr()
        .ok_or_else(|| bad(what, key, "an array"))
}

fn f64_arr(items: &[Json], key: &str, what: &'static str) -> Result<Vec<f64>, Error> {
    items
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| bad(what, key, "numbers")))
        .collect()
}

fn u64_arr(items: &[Json], key: &str, what: &'static str) -> Result<Vec<u64>, Error> {
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| bad(what, key, "unsigned integers"))
        })
        .collect()
}

// ---------------------------------------------------------------------
// RunReport rendering.
// ---------------------------------------------------------------------

/// Renders the common access-time summary block.
pub fn render_access(a: &AccessStats) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"min\":{},\"max\":{}}}",
        a.count,
        num(a.mean),
        num(a.p50),
        num(a.p99),
        num(a.min),
        num(a.max)
    )
}

fn label(labels: &[String], i: usize) -> String {
    labels.get(i).cloned().unwrap_or_else(|| i.to_string())
}

fn event_kind_str(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Request => "request",
        EventKind::Served => "served",
        EventKind::TransferStart(JobKind::Prefetch) => "transfer-start:prefetch",
        EventKind::TransferStart(JobKind::Demand) => "transfer-start:demand",
        EventKind::TransferDone(JobKind::Prefetch) => "transfer-done:prefetch",
        EventKind::TransferDone(JobKind::Demand) => "transfer-done:demand",
    }
}

fn event_kind_from_str(s: &str) -> Option<EventKind> {
    Some(match s {
        "request" => EventKind::Request,
        "served" => EventKind::Served,
        "transfer-start:prefetch" => EventKind::TransferStart(JobKind::Prefetch),
        "transfer-start:demand" => EventKind::TransferStart(JobKind::Demand),
        "transfer-done:prefetch" => EventKind::TransferDone(JobKind::Prefetch),
        "transfer-done:demand" => EventKind::TransferDone(JobKind::Demand),
        _ => return None,
    })
}

fn render_event(e: &SimEvent) -> String {
    format!(
        "{{\"at\":{},\"client\":{},\"shard\":{},\"item\":{},\"kind\":\"{}\"}}",
        num(e.at),
        e.client,
        e.shard,
        e.item,
        event_kind_str(e.kind)
    )
}

fn render_histogram(h: &Histogram) -> String {
    format!(
        "{{\"edges\":{},\"counts\":{},\"sum\":{}}}",
        list(h.edges(), |e| num(*e)),
        list(h.counts(), |c| c.to_string()),
        num(h.sum())
    )
}

fn render_section(section: &ReportSection, labels: &[String]) -> String {
    match section {
        ReportSection::Plan(r) => format!(
            "{{\"items\":{},\"labels\":{},\"gain\":{},\"stretch\":{},\"expected_access_time\":{},\"upper_bound\":{},\"per_request\":{}}}",
            list(r.plan.items(), |i| i.to_string()),
            list(r.plan.items(), |&i| format!("\"{}\"", esc(&label(labels, i)))),
            num(r.gain),
            num(r.stretch),
            num(r.expected_access_time),
            num(r.upper_bound),
            list(&r.per_request, |t| num(*t)),
        ),
        ReportSection::Trace(r) => format!(
            "{{\"requests\":{},\"mean_access_time\":{},\"hit_rate\":{},\"wasted_per_request\":{}}}",
            r.requests,
            num(r.mean_access_time),
            num(r.hit_rate),
            num(r.wasted_per_request),
        ),
        ReportSection::MonteCarlo(r) => format!(
            "{{\"iterations\":{},\"mean_access_time\":{},\"std_err\":{},\"mean_gain\":{}}}",
            r.iterations,
            num(r.access.mean()),
            num(r.access.std_err()),
            num(r.gain.mean()),
        ),
        ReportSection::MultiClient(r) => format!(
            "{{\"requests\":{},\"access\":{},\"utilisation\":{},\"wasted_transfer\":{},\"total_transfer\":{},\"mean_queue_len\":{}}}",
            r.requests(),
            render_access(&r.access),
            num(r.utilisation),
            num(r.wasted_transfer),
            num(r.total_transfer),
            num(r.mean_queue_len),
        ),
        ReportSection::Sharded(r) => format!(
            "{{\"requests\":{},\"access\":{},\"utilisation\":{},\"wasted_transfer\":{},\"total_transfer\":{},\"shards\":{}}}",
            r.requests(),
            render_access(&r.access),
            num(r.utilisation),
            num(r.wasted_transfer),
            num(r.total_transfer),
            list(&r.shards, |s| format!(
                "{{\"shard\":{},\"jobs\":{},\"busy_time\":{},\"utilisation\":{},\"mean_queue_depth\":{},\"max_queue_depth\":{},\"total_transfer\":{},\"outage_time\":{},\"outage_delay\":{},\"service_scale\":{},\"stalls\":{}}}",
                s.shard,
                s.jobs,
                num(s.busy_time),
                num(s.utilisation),
                num(s.mean_queue_depth),
                s.max_queue_depth,
                num(s.total_transfer),
                num(s.outage_time),
                num(s.outage_delay),
                num(s.service_scale),
                render_histogram(&s.stalls),
            )),
        ),
    }
}

/// Renders a [`RunReport`] as the JSON object *fields*
/// `"access":…,"section_kind":…,"section":…,"events":…` (no braces),
/// so callers can splice their own metadata keys around them. The CLI
/// prefixes workload/backend/policy; the daemon prefixes what it knows.
///
/// `labels` are the catalog item labels (used by plan sections only;
/// pass `&[]` when there are none).
pub fn render_report_fields(report: &RunReport, labels: &[String]) -> String {
    format!(
        "\"access\":{},\"section_kind\":\"{}\",\"section\":{},\"events\":{}",
        render_access(&report.access),
        esc(report.section.name()),
        render_section(&report.section, labels),
        list(&report.events, render_event),
    )
}

// ---------------------------------------------------------------------
// RunReport parsing (population sections only).
// ---------------------------------------------------------------------

const REPORT: &str = "wire report";

fn parse_access(j: &Json) -> Result<AccessStats, Error> {
    Ok(AccessStats {
        count: field_u64(j, "count", REPORT)?,
        mean: field_f64(j, "mean", REPORT)?,
        p50: field_f64(j, "p50", REPORT)?,
        p99: field_f64(j, "p99", REPORT)?,
        min: field_f64(j, "min", REPORT)?,
        max: field_f64(j, "max", REPORT)?,
    })
}

fn parse_histogram(j: &Json) -> Result<Histogram, Error> {
    let edges = f64_arr(field_arr(j, "edges", REPORT)?, "edges", REPORT)?;
    let counts = u64_arr(field_arr(j, "counts", REPORT)?, "counts", REPORT)?;
    let sum = field_f64(j, "sum", REPORT)?;
    if edges.is_empty()
        || edges.windows(2).any(|w| w[0] >= w[1])
        || edges[0] <= 0.0
        || counts.len() != edges.len() + 2
    {
        return Err(Error::InvalidParam {
            what: REPORT,
            detail: "field 'stalls' is not a valid histogram (edges must be increasing and \
                     positive, with one count per bin)"
                .into(),
        });
    }
    Ok(Histogram::from_parts(edges, counts, sum))
}

fn parse_multi_client(j: &Json) -> Result<MultiClientResult, Error> {
    Ok(MultiClientResult {
        access: parse_access(field(j, "access", REPORT)?)?,
        utilisation: field_f64(j, "utilisation", REPORT)?,
        wasted_transfer: field_f64(j, "wasted_transfer", REPORT)?,
        total_transfer: field_f64(j, "total_transfer", REPORT)?,
        mean_queue_len: field_f64(j, "mean_queue_len", REPORT)?,
    })
}

fn parse_sharded(j: &Json) -> Result<ShardReport, Error> {
    let shards = field_arr(j, "shards", REPORT)?
        .iter()
        .map(|s| {
            Ok(ShardStats {
                shard: field_usize(s, "shard", REPORT)?,
                jobs: field_u64(s, "jobs", REPORT)?,
                busy_time: field_f64(s, "busy_time", REPORT)?,
                utilisation: field_f64(s, "utilisation", REPORT)?,
                mean_queue_depth: field_f64(s, "mean_queue_depth", REPORT)?,
                max_queue_depth: field_usize(s, "max_queue_depth", REPORT)?,
                total_transfer: field_f64(s, "total_transfer", REPORT)?,
                outage_time: field_f64(s, "outage_time", REPORT)?,
                outage_delay: field_f64(s, "outage_delay", REPORT)?,
                service_scale: field_f64(s, "service_scale", REPORT)?,
                stalls: parse_histogram(field(s, "stalls", REPORT)?)?,
            })
        })
        .collect::<Result<Vec<_>, Error>>()?;
    Ok(ShardReport {
        access: parse_access(field(j, "access", REPORT)?)?,
        utilisation: field_f64(j, "utilisation", REPORT)?,
        wasted_transfer: field_f64(j, "wasted_transfer", REPORT)?,
        total_transfer: field_f64(j, "total_transfer", REPORT)?,
        shards,
    })
}

fn parse_events(items: &[Json]) -> Result<Vec<SimEvent>, Error> {
    items
        .iter()
        .map(|e| {
            let kind = field_str(e, "kind", REPORT)?;
            Ok(SimEvent {
                at: field_f64(e, "at", REPORT)?,
                client: field_usize(e, "client", REPORT)?,
                shard: field_usize(e, "shard", REPORT)?,
                item: field_usize(e, "item", REPORT)?,
                kind: event_kind_from_str(kind).ok_or_else(|| Error::InvalidParam {
                    what: REPORT,
                    detail: format!("unknown event kind '{kind}'"),
                })?,
            })
        })
        .collect()
}

/// Rebuilds a [`RunReport`] from a JSON document containing the fields
/// emitted by [`render_report_fields`] (extra metadata keys are
/// ignored).
///
/// Only the population sections (`multi-client`, `sharded`) can be
/// rebuilt — they are what a `served:` round-trip carries — and for
/// those the reconstruction is bit-identical to the original report.
pub fn parse_report(text: &str) -> Result<RunReport, Error> {
    let doc = Json::parse(text)?;
    let access = parse_access(field(&doc, "access", REPORT)?)?;
    let kind = field_str(&doc, "section_kind", REPORT)?;
    let section_json = field(&doc, "section", REPORT)?;
    let section = match kind {
        "multi-client" => ReportSection::MultiClient(parse_multi_client(section_json)?),
        "sharded" => ReportSection::Sharded(parse_sharded(section_json)?),
        other => {
            return Err(Error::InvalidParam {
                what: REPORT,
                detail: format!(
                    "cannot rebuild a '{other}' section from the wire \
                     (only multi-client and sharded reports round-trip)"
                ),
            })
        }
    };
    let events = parse_events(field_arr(&doc, "events", REPORT)?)?;
    Ok(RunReport {
        access,
        section,
        events,
        // Store counters and phase timings are not results, so they do
        // not travel: the wire form omits them (keeping warm and cold
        // bodies byte-identical) and the reconstruction reports zeros.
        plan_store: planstore::PlanStoreStats::default(),
        phases: Default::default(),
    })
}

// ---------------------------------------------------------------------
// Workload shipping: the body a served: backend posts to a daemon.
// ---------------------------------------------------------------------

const RUN: &str = "wire run";

/// A population workload in transit: everything a daemon needs to
/// replay the run bit-identically — registry specs for the policy and
/// the inner backend, the retrieval catalog, and the Markov chain as
/// its exact stored rows.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRun {
    /// Workload kind: `"multi-client"` or `"sharded"`.
    pub kind: String,
    /// Registry spec of the backend the daemon should run
    /// (e.g. `sharded:8x64:hash`).
    pub backend: String,
    /// Registry spec of the planning policy (e.g. `skp-exact`).
    pub policy: String,
    /// Requests each client issues.
    pub requests_per_client: u64,
    /// Simulation seed (full 64-bit precision preserved).
    pub seed: u64,
    /// Whether the mechanistic event log is wanted.
    pub traced: bool,
    /// Retrieval time per catalog item.
    pub retrievals: Vec<f64>,
    /// Per-state viewing times of the browsing chain.
    pub viewing: Vec<f64>,
    /// Exact per-state transition rows `(successor, probability)`, in
    /// stored order — sampling order matters for determinism.
    pub rows: Vec<Vec<(usize, f64)>>,
}

impl WireRun {
    /// Captures a population run's inputs for shipping.
    #[allow(clippy::too_many_arguments)] // mirrors the wire document's fields
    pub fn new(
        kind: &str,
        backend: &str,
        policy: &str,
        chain: &MarkovChain,
        retrievals: &[f64],
        requests_per_client: u64,
        seed: u64,
        traced: bool,
    ) -> Self {
        Self {
            kind: kind.to_string(),
            backend: backend.to_string(),
            policy: policy.to_string(),
            requests_per_client,
            seed,
            traced,
            retrievals: retrievals.to_vec(),
            viewing: (0..chain.n_states()).map(|i| chain.viewing(i)).collect(),
            rows: (0..chain.n_states())
                .map(|i| chain.successors(i).to_vec())
                .collect(),
        }
    }

    /// Renders the workload as one JSON document.
    pub fn render(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"backend\":\"{}\",\"policy\":\"{}\",\"requests_per_client\":{},\"seed\":{},\"traced\":{},\"retrievals\":{},\"chain\":{{\"viewing\":{},\"rows\":{}}}}}",
            esc(&self.kind),
            esc(&self.backend),
            esc(&self.policy),
            self.requests_per_client,
            self.seed,
            self.traced,
            list(&self.retrievals, |x| num(*x)),
            list(&self.viewing, |x| num(*x)),
            list(&self.rows, |row| list(row, |(j, p)| format!(
                "[{},{}]",
                j,
                num(*p)
            ))),
        )
    }

    /// Parses a workload document produced by [`render`](Self::render).
    pub fn parse(text: &str) -> Result<Self, Error> {
        let doc = Json::parse(text)?;
        let chain = field(&doc, "chain", RUN)?;
        let rows = field_arr(chain, "rows", RUN)?
            .iter()
            .map(|row| {
                row.as_arr()
                    .ok_or_else(|| bad(RUN, "rows", "an array of rows"))?
                    .iter()
                    .map(|pair| {
                        let pair = pair
                            .as_arr()
                            .filter(|p| p.len() == 2)
                            .ok_or_else(|| bad(RUN, "rows", "[successor, probability] pairs"))?;
                        let j = pair[0]
                            .as_u64()
                            .ok_or_else(|| bad(RUN, "rows", "[successor, probability] pairs"))?;
                        let p = pair[1]
                            .as_f64()
                            .ok_or_else(|| bad(RUN, "rows", "[successor, probability] pairs"))?;
                        Ok((j as usize, p))
                    })
                    .collect::<Result<Vec<_>, Error>>()
            })
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(Self {
            kind: field_str(&doc, "kind", RUN)?.to_string(),
            backend: field_str(&doc, "backend", RUN)?.to_string(),
            policy: field_str(&doc, "policy", RUN)?.to_string(),
            requests_per_client: field_u64(&doc, "requests_per_client", RUN)?,
            seed: field_u64(&doc, "seed", RUN)?,
            traced: field_bool(&doc, "traced", RUN)?,
            retrievals: f64_arr(field_arr(&doc, "retrievals", RUN)?, "retrievals", RUN)?,
            viewing: f64_arr(field_arr(chain, "viewing", RUN)?, "viewing", RUN)?,
            rows,
        })
    }

    /// Builds the engine and workload this wire run describes. Running
    /// `engine.run(&workload)` replays the original simulation
    /// bit-identically (same chain rows, same seed, same specs).
    pub fn instantiate(&self) -> Result<(Engine, Workload), Error> {
        self.build_with_store(None)
    }

    /// Like [`instantiate`](Self::instantiate), but composing a shared
    /// plan store into the engine — `skp-serve` hands every request the
    /// daemon-wide store, which is what turns the second identical run
    /// into a store hit (the report stays bit-identical either way).
    pub fn instantiate_with_store(
        &self,
        store: std::sync::Arc<dyn planstore::PlanStore>,
    ) -> Result<(Engine, Workload), Error> {
        self.build_with_store(Some(store))
    }

    fn build_with_store(
        &self,
        store: Option<std::sync::Arc<dyn planstore::PlanStore>>,
    ) -> Result<(Engine, Workload), Error> {
        let chain = MarkovChain::new(self.rows.clone(), self.viewing.clone()).map_err(|e| {
            Error::InvalidParam {
                what: RUN,
                detail: format!("field 'chain' is not a valid markov chain: {e}"),
            }
        })?;
        let mut builder = Engine::builder()
            .policy(&self.policy)
            .catalog(self.retrievals.clone())
            .backend_spec(&self.backend);
        if let Some(store) = store {
            builder = builder.plan_store_instance(store);
        }
        let engine = builder.build()?;
        let workload = match self.kind.as_str() {
            "multi-client" => Workload::multi_client(chain, self.requests_per_client, self.seed),
            "sharded" => Workload::sharded(chain, self.requests_per_client, self.seed),
            other => {
                return Err(Error::InvalidParam {
                    what: RUN,
                    detail: format!("field 'kind' must be multi-client or sharded, not '{other}'"),
                })
            }
        };
        Ok((engine, workload.traced(self.traced)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_basics() {
        let doc = Json::parse(r#"{"a":[1,-2.5e3,true,null],"b":"x\n\"A"}"#).unwrap();
        let a = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], Json::Null);
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\n\"A"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"a\":01x}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn u64_seeds_survive_without_f64_truncation() {
        let seed = u64::MAX - 1;
        let doc = Json::parse(&format!("{{\"seed\":{seed}}}")).unwrap();
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn f64_values_round_trip_bit_exactly() {
        for x in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, -0.0, 1e300] {
            let parsed = Json::parse(&num(x)).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "{x} drifted");
        }
    }

    #[test]
    fn population_report_round_trips_bit_identically() {
        use crate::engine::Engine;
        let chain = MarkovChain::random(12, 2, 5, 3, 9, 7).unwrap();
        let retrievals: Vec<f64> = (0..12).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut engine = Engine::builder()
            .policy("skp-exact")
            .catalog(retrievals)
            .backend_spec("sharded:3x4:hot-cold@2")
            .build()
            .unwrap();
        let report = engine
            .run(&Workload::sharded(chain, 25, 77).traced(true))
            .unwrap();
        assert!(!report.events.is_empty());
        let json = format!("{{{}}}", render_report_fields(&report, &[]));
        let rebuilt = parse_report(&json).unwrap();
        assert_eq!(report, rebuilt);
    }

    #[test]
    fn multi_client_report_round_trips() {
        let chain = MarkovChain::random(8, 2, 4, 2, 6, 3).unwrap();
        let retrievals: Vec<f64> = (0..8).map(|i| 2.0 + i as f64).collect();
        let mut engine = Engine::builder()
            .policy("skp-exact")
            .catalog(retrievals)
            .backend_spec("multi-client:4")
            .build()
            .unwrap();
        let report = engine.run(&Workload::multi_client(chain, 20, 5)).unwrap();
        let json = format!("{{{}}}", render_report_fields(&report, &[]));
        assert_eq!(parse_report(&json).unwrap(), report);
    }

    #[test]
    fn non_population_sections_do_not_parse() {
        let scenario =
            crate::Scenario::new(vec![0.4, 0.3, 0.2, 0.1], vec![4.0, 3.0, 2.0, 1.0], 5.0).unwrap();
        let mut engine = Engine::builder().policy("skp-exact").build().unwrap();
        let report = engine.run(&Workload::plan(scenario)).unwrap();
        let json = format!("{{{}}}", render_report_fields(&report, &[]));
        let err = parse_report(&json).unwrap_err().to_string();
        assert!(err.contains("plan") && err.contains("round-trip"), "{err}");
    }

    #[test]
    fn parse_errors_name_the_field() {
        let err = parse_report("{\"access\":{\"count\":1}}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("'mean'"), "{err}");
        let err = WireRun::parse("{\"kind\":\"sharded\"}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("'chain'"), "{err}");
        let err = WireRun::parse("{\"chain\":{\"viewing\":[],\"rows\":[]}}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("'kind'"), "{err}");
    }

    #[test]
    fn wire_run_round_trips_and_replays_identically() {
        let chain = MarkovChain::random(10, 2, 4, 3, 8, 42).unwrap();
        let retrievals: Vec<f64> = (0..10).map(|i| 1.5 + (i % 3) as f64).collect();
        let wire = WireRun::new(
            "sharded",
            "sharded:2x4:hash",
            "skp-exact",
            &chain,
            &retrievals,
            15,
            1999,
            true,
        );
        let parsed = WireRun::parse(&wire.render()).unwrap();
        assert_eq!(wire, parsed);

        // The shipped run replays bit-identically to the direct one.
        let mut direct = Engine::builder()
            .policy("skp-exact")
            .catalog(retrievals)
            .backend_spec("sharded:2x4:hash")
            .build()
            .unwrap();
        let expected = direct
            .run(&Workload::sharded(chain, 15, 1999).traced(true))
            .unwrap();
        let (mut engine, workload) = parsed.instantiate().unwrap();
        assert_eq!(engine.run(&workload).unwrap(), expected);
    }
}
