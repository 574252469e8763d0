//! The **shared-bandwidth** channel model of the authors' companion paper
//! (reference \[15\]: *"a model in which prefetching is neither aborted nor
//! preempted by demand fetch but instead gets equal priority in network
//! bandwidth utilisation"*).
//!
//! The main paper's model is FIFO: a demand fetch waits for every
//! outstanding prefetch. Under bandwidth sharing, a demand fetch instead
//! runs *concurrently* with the remaining prefetch stream, each side
//! receiving half the channel until one finishes.
//!
//! Closed form for a request `α` arriving at `v` against a plan with
//! remaining prefetch work `W` (total plan work minus `v`, floored at 0):
//!
//! - `α` cached or already prefetched: `T = 0`;
//! - `α` still in the prefetch stream: the stream keeps the full channel
//!   (there is no competing demand), so `T = max(0, C_α − v)` with `C_α`
//!   the plan-order completion time — identical to FIFO;
//! - `α` not planned: demand and prefetch share until one side ends:
//!   `T = 2·r_α` if `r_α ≤ W`, else `T = r_α + W`.
//!
//! Sharing therefore never hurts the demand fetch and helps exactly when
//! the miss is lighter than the outstanding prefetch work
//! (`T_shared = min(2 r_α, r_α + W) ≤ r_α + W = T_fifo`). The fluid
//! replay [`run_session_shared`] integrates the two streams explicitly
//! and the tests pin it to the closed form [`access_time_shared`]. The
//! replay drives the ordinary [`Scheduler`] and its
//! [`EventQueue`](crate::engine::EventQueue); its event times are
//! fractional fluid crossings rather than quantised delays.

use crate::network::RetrievalModel;
use crate::scheduler::{Flow, Scheduler};
use crate::session::SessionConfig;
use crate::stats::AccessStats;

/// Closed-form access time under the shared-bandwidth channel.
pub fn access_time_shared(retr: &impl RetrievalModel, cfg: &SessionConfig<'_>) -> f64 {
    let alpha = cfg.request;
    if cfg.cached.contains(&alpha) {
        return 0.0;
    }
    // Completion time of each planned item at full rate.
    let mut acc = 0.0;
    let mut completion_alpha = None;
    for &i in cfg.plan {
        acc += retr.retrieval_time(i);
        if i == alpha {
            completion_alpha = Some(acc);
        }
    }
    let total_plan = acc;
    if let Some(c) = completion_alpha {
        return (c - cfg.viewing).max(0.0);
    }
    let w = (total_plan - cfg.viewing).max(0.0); // outstanding prefetch work
    let r = retr.retrieval_time(alpha);
    if r <= w {
        2.0 * r
    } else {
        r + w
    }
}

/// FIFO access time (the main paper's model) for the same configuration —
/// convenience for side-by-side comparisons.
pub fn access_time_fifo(retr: &impl RetrievalModel, cfg: &SessionConfig<'_>) -> f64 {
    crate::session::run_session(retr, cfg).access_time
}

/// Outcome of the fluid replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedOutcome {
    /// Access-time summary of the session's one request (the common
    /// stats block every backend reports; all quantiles collapse onto
    /// the single observation).
    pub access: AccessStats,
    /// Absolute time every planned prefetch had completed.
    pub prefetches_done_at: f64,
}

impl SharedOutcome {
    /// Response time of the request.
    #[inline]
    pub fn access_time(&self) -> f64 {
        self.access.mean
    }
}

/// Event payload of the fluid replay: the arbitration decision happens
/// when the request arrives; the two streams complete at the times it
/// fixes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    RequestArrives,
    DemandDone,
    PrefetchStreamDone,
}

/// Fluid (piecewise-linear) replay of the shared-bandwidth channel,
/// driven through the same [`Scheduler`] as every other backend.
///
/// Integrates the prefetch stream and the demand fetch as fluid flows:
/// full rate while alone on the channel, half rate each while both are
/// active. The arbitration at the request's arrival schedules the two
/// completion events; the scheduler sequences them. Exists to *validate*
/// [`access_time_shared`] mechanistically; prefer the closed form in
/// simulations.
pub fn run_session_shared(retr: &impl RetrievalModel, cfg: &SessionConfig<'_>) -> SharedOutcome {
    assert!(
        cfg.viewing.is_finite() && cfg.viewing >= 0.0,
        "invalid viewing time"
    );
    let alpha = cfg.request;
    let total_plan: f64 = cfg.plan.iter().map(|&i| retr.retrieval_time(i)).sum();

    let mut sched: Scheduler<Ev> = Scheduler::new();
    sched.schedule(cfg.viewing, Ev::RequestArrives);
    let mut served_at = None;
    let mut prefetches_done_at = None;
    sched.run(|now, ev, q| {
        match ev {
            Ev::RequestArrives => {
                // Work done so far: prefetch alone on the channel.
                let prefetch_left = total_plan - total_plan.min(now);
                if cfg.cached.contains(&alpha) {
                    // Cache hit: served instantly; the stream keeps the
                    // full channel.
                    q.schedule(now, Ev::DemandDone);
                    q.schedule(now + prefetch_left, Ev::PrefetchStreamDone);
                } else if cfg.plan.contains(&alpha) {
                    // Planned item: no competing demand exists, so the
                    // stream continues at full rate until it completes.
                    let mut acc = 0.0;
                    for &i in cfg.plan {
                        acc += retr.retrieval_time(i);
                        if i == alpha {
                            break;
                        }
                    }
                    q.schedule(acc.max(now), Ev::DemandDone);
                    q.schedule(total_plan.max(now), Ev::PrefetchStreamDone);
                } else {
                    // Demand fetch shares the channel with the remaining
                    // prefetch work: both at rate 1/2 until one side
                    // exhausts, the survivor at full rate.
                    let demand = retr.retrieval_time(alpha);
                    let joint = prefetch_left.min(demand);
                    let t = now + 2.0 * joint;
                    let served = t + (demand - joint);
                    q.schedule(served, Ev::DemandDone);
                    let stream_left = prefetch_left - joint;
                    let stream_done = if stream_left > 0.0 {
                        served.max(t) + stream_left
                    } else {
                        t.min(served)
                    };
                    q.schedule(stream_done, Ev::PrefetchStreamDone);
                }
            }
            Ev::DemandDone => served_at = Some(now),
            Ev::PrefetchStreamDone => prefetches_done_at = Some(now),
        }
        Flow::Continue
    });
    let served_at = served_at.expect("request is always eventually served");
    SharedOutcome {
        access: AccessStats::single(served_at - cfg.viewing),
        prefetches_done_at: prefetches_done_at.expect("stream always completes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Catalog;

    const TOL: f64 = 1e-9;

    fn catalog() -> Catalog {
        Catalog::new(vec![8.0, 6.0, 9.0]) // r = [8, 6, 9]
    }

    fn cfg<'a>(
        viewing: f64,
        plan: &'a [usize],
        request: usize,
        cached: &'a [usize],
    ) -> SessionConfig<'a> {
        SessionConfig {
            viewing,
            plan,
            request,
            cached,
        }
    }

    #[test]
    fn cache_hits_and_planned_items_match_fifo() {
        let c = catalog();
        // Cache hit.
        assert_eq!(access_time_shared(&c, &cfg(10.0, &[], 1, &[1])), 0.0);
        // Fully prefetched item.
        assert_eq!(access_time_shared(&c, &cfg(10.0, &[0], 0, &[])), 0.0);
        // Stretching item: same as FIFO (no competing demand).
        let shared = access_time_shared(&c, &cfg(10.0, &[0, 2], 2, &[]));
        let fifo = access_time_fifo(&c, &cfg(10.0, &[0, 2], 2, &[]));
        assert!((shared - fifo).abs() < TOL);
        assert!((shared - 7.0).abs() < TOL);
    }

    #[test]
    fn light_miss_finishes_before_prefetch_stream() {
        let c = catalog();
        // Plan [0, 2] leaves W = 7 at v = 10; miss on item 1 (r = 6 ≤ 7):
        // shared T = 12 < FIFO T = 13.
        let shared = access_time_shared(&c, &cfg(10.0, &[0, 2], 1, &[]));
        let fifo = access_time_fifo(&c, &cfg(10.0, &[0, 2], 1, &[]));
        assert!((shared - 12.0).abs() < TOL);
        assert!((fifo - 13.0).abs() < TOL);
    }

    #[test]
    fn heavy_miss_pays_outstanding_work() {
        let c = Catalog::new(vec![2.0, 20.0, 3.0]);
        // Plan [2] at v = 1: W = 2; miss on item 1 (r = 20 > W):
        // T = r + W = 22 (same as FIFO).
        let shared = access_time_shared(&c, &cfg(1.0, &[2], 1, &[]));
        let fifo = access_time_fifo(&c, &cfg(1.0, &[2], 1, &[]));
        assert!((shared - 22.0).abs() < TOL);
        assert!((shared - fifo).abs() < TOL);
    }

    #[test]
    fn sharing_never_worse_than_fifo() {
        let c = catalog();
        for plan in [vec![], vec![0], vec![0, 2], vec![1, 0]] {
            for alpha in 0..3 {
                let shared = access_time_shared(&c, &cfg(5.0, &plan, alpha, &[]));
                let fifo = access_time_fifo(&c, &cfg(5.0, &plan, alpha, &[]));
                assert!(
                    shared <= fifo + TOL,
                    "plan {plan:?}, α={alpha}: shared {shared} > fifo {fifo}"
                );
            }
        }
    }

    #[test]
    fn fluid_replay_matches_closed_form() {
        let c = catalog();
        for v in [0.0, 3.0, 10.0, 25.0] {
            for plan in [vec![], vec![0], vec![2], vec![0, 2], vec![1, 0, 2]] {
                for alpha in 0..3 {
                    let conf = cfg(v, &plan, alpha, &[]);
                    let closed = access_time_shared(&c, &conf);
                    let fluid = run_session_shared(&c, &conf).access_time();
                    assert!(
                        (closed - fluid).abs() < TOL,
                        "v={v}, plan {plan:?}, α={alpha}: closed {closed} vs fluid {fluid}"
                    );
                }
            }
        }
    }

    #[test]
    fn fluid_replay_tracks_prefetch_completion() {
        let c = catalog();
        // Plan [0, 2] (17 work), v = 10, miss on 1 (6 work).
        // Shared until t = 10 + 12 = 22: demand done, prefetch got 6 of
        // its 7 remaining -> finishes at 23.
        let out = run_session_shared(&c, &cfg(10.0, &[0, 2], 1, &[]));
        assert!((out.access_time() - 12.0).abs() < TOL);
        assert!((out.prefetches_done_at - 23.0).abs() < TOL);
        assert_eq!(out.access.count, 1);
    }

    #[test]
    fn no_plan_is_plain_retrieval_in_both_models() {
        let c = catalog();
        let shared = access_time_shared(&c, &cfg(4.0, &[], 2, &[]));
        let fifo = access_time_fifo(&c, &cfg(4.0, &[], 2, &[]));
        assert!((shared - 9.0).abs() < TOL);
        assert!((shared - fifo).abs() < TOL);
    }
}
