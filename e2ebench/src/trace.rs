//! The benchmark's own span recorder for the traced run (`--trace 1`).
//!
//! Spans wrap each call the benchmark makes into a layer's public
//! function. They are kept in memory and written out once, at the end,
//! as a Chrome trace; the obs `PhaseBreakdown` of an observed run folds
//! in as children of that run's span. When tracing is off the recorder
//! keeps nothing and never reads the clock.

use std::collections::BTreeMap;
use std::time::Instant;

use speculative_prefetch::wire::esc;
use speculative_prefetch::PhaseBreakdown;

#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Microseconds since the recorder's origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The operation this span belongs to (spans of one request share it).
    pub op: u64,
    /// Recorder thread (Chrome `tid`).
    pub tid: u32,
}

/// An obs epoch mark, kept for the trace's counter track.
#[derive(Clone)]
pub struct Mark {
    pub parent: usize,
    pub at: f64,
    pub events: u64,
    pub pending: usize,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    pub spans: Vec<Span>,
    pub marks: Vec<Mark>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, tid: u32) -> Self {
        Tracer {
            on,
            origin,
            tid,
            spans: Vec::new(),
            marks: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span of `layer`; returns its result and the
    /// span's index (`None` when tracing is off).
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Option<usize>) {
        if !self.on {
            return (f(self), None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
            op,
            tid: self.tid,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        (out, Some(id))
    }

    /// Folds an observed run's phase spans in as children of `parent`
    /// (laid end to end from its start, as the phases ran) and keeps
    /// its epoch marks.
    pub fn fold_phases(&mut self, parent: Option<usize>, phases: &PhaseBreakdown, op: u64) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start_us;
        for phase in &phases.spans {
            let dur = phase.seconds * 1e6;
            self.spans.push(Span {
                name: phase.name,
                layer: phase_layer(phase.name),
                start_us: at,
                end_us: at + dur,
                parent: Some(parent),
                op,
                tid: self.tid,
            });
            at += dur;
        }
        self.marks.extend(phases.marks.iter().map(|m| Mark {
            parent,
            at: m.at,
            events: m.events,
            pending: m.pending,
        }));
    }

    /// Appends another recorder's spans (a load-generator thread's).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.marks.extend(other.marks.into_iter().map(|mut m| {
            m.parent += base;
            m
        }));
    }

    /// Busy time per layer: `(spans, total ms, self ms)`, where a span's
    /// self time is its duration minus what its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut table = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_us) {
            let dur = s.end_us - s.start_us;
            let row = table.entry(s.layer).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += dur / 1e3;
            row.2 += (dur - children).max(0.0) / 1e3;
        }
        table
    }

    /// Prints the per-layer self-time table.
    pub fn print_table(&self) {
        let table = self.self_times();
        let total: f64 = table.values().map(|r| r.2).sum();
        println!("layer self time (traced run)");
        println!(
            "  {:<14} {:>8} {:>12} {:>12} {:>7}",
            "layer", "spans", "total ms", "self ms", "self %"
        );
        for (layer, (n, total_ms, self_ms)) in &table {
            println!(
                "  {layer:<14} {n:>8} {total_ms:>12.3} {self_ms:>12.3} {:>6.1}%",
                100.0 * self_ms / total.max(1e-9)
            );
        }
    }

    /// The Chrome trace: one `X` event per span (layer as category, op
    /// id and parent in `args`), the epoch marks as a counter track on
    /// a simulated-time process, and the host block as metadata.
    pub fn chrome_json(&self, host: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{}}}}}",
                esc(s.name),
                esc(s.layer),
                s.tid,
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        for m in &self.marks {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"scheduler\",\"ph\":\"C\",\"pid\":2,\"ts\":{},\
                 \"args\":{{\"pending\":{},\"events\":{},\"run_span\":{}}}}}",
                m.at, m.pending, m.events, m.parent
            ));
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"host\":{host},\
             \"pid2\":\"scheduler epoch marks in simulated time units\"}}}}"
        ));
        out
    }
}

/// The layer an engine phase's time belongs to. `build` keys and looks
/// up the plan store; `simulate` is the event loop (with plan solves
/// and the `AccessStats` sort inside it); `stat-fold` writes the store.
fn phase_layer(phase: &str) -> &'static str {
    match phase {
        "simulate" => "obs.simulate",
        "build" => "obs.build",
        "stat-fold" => "obs.stat-fold",
        "plan-solve" => "obs.plan-solve",
        _ => "obs.other",
    }
}
