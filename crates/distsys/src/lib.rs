//! # distsys — distributed-information-system substrate
//!
//! The paper's model abstracts a client fetching items from remote
//! servers over a network where **a prefetch in progress completes before
//! a demand fetch begins** (a single non-preemptive FIFO channel). This
//! crate builds that system mechanistically, and generalises it to a
//! sharded server farm.
//!
//! ## Architecture: one scheduler under every backend
//!
//! Everything runs on a single discrete-event core:
//!
//! - [`engine`] — the deterministic [`EventQueue`] (time-ordered, FIFO
//!   tie-breaks);
//! - [`scheduler`] — the [`Scheduler`] run loop over that queue, the
//!   [`ShardMap`] partitioning the catalog across server shards
//!   (hash / range / hot–cold [`Placement`]), and the sharded
//!   multi-client simulation [`ShardedSim`] with per-shard queues,
//!   service channels and [`ShardReport`] statistics;
//! - [`parallel`] — the conservative parallel executor
//!   [`ParallelShardedSim`]: per-shard worker threads synchronised by
//!   lookahead-derived epoch barriers, bit-identical to the sequential
//!   scheduler on the same seed;
//! - [`exec`] — shared deterministic-parallel plumbing (thread-pool
//!   sizing, ordered parallel map, seed derivation) used by the
//!   parallel executor and the Monte-Carlo runner alike;
//! - [`faults`] — fault-injection specs ([`FaultSpec`]: outage windows,
//!   slow links, seed-derived heterogeneous service times) materialised
//!   per run and applied inside the shared `SimState` handlers, so both
//!   executors stay bit-identical with faults active;
//! - [`network`] — links (latency + bandwidth) and item catalogs mapping
//!   items to retrieval times, including the paper's `r ∈ [1, 30]`
//!   uniform catalog;
//! - [`session`] — the client session of Figure 1/2, replayed as a
//!   scheduler client; reproduces the paper's Section-3/4 closed forms
//!   event by event;
//! - [`multiclient`] — the paper's shared channel extended across a
//!   client population: exactly [`ShardedSim`] with `shards = 1` (no
//!   loop of its own);
//! - [`shared`] — the companion paper's bandwidth-sharing arbitration
//!   (reference \[15\]), its fluid replay driven through the same
//!   scheduler;
//! - [`stats`] — the common [`AccessStats`] (mean/p50/p99) every report
//!   carries, and the stall-time [`Histogram`].
//!
//! The `shards = 1` path is the system the paper analyses: the
//! single-client session reproduces the Section-3/4 access-time model
//! (Figures 1–2), and the single-channel multi-client system realises
//! the Section-6 network-usage tension. Sharding (`shards > 1`) is the
//! scaling axis beyond the paper: the same scheduler, the contention
//! split across independent per-shard channels.
//!
//! The closed-form access times of `skp-core` are *derived* from this
//! timing model; the workspace integration tests replay sessions here and
//! assert the two agree exactly, which is the strongest check that the
//! formulas (and hence the solvers) model the system the paper describes.
//!
//! ## Event engine
//!
//! The [`EventQueue`] behind every simulation is a binary heap ordered
//! by a packed `(time, sequence)` key: earliest time first, FIFO on
//! equal-time ties, and a panic on NaN, infinite or past times. The
//! order is total, so every executor pops the identical sequence for
//! the same inputs, and the reports and event logs are bit-identical
//! run to run — a property test against a linear-scan model and the
//! workspace goldens pin it. [`engine`] records why the heap replaced
//! the calendar queue that used to be the default.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod exec;
pub mod faults;
pub mod multiclient;
pub mod network;
pub mod parallel;
pub mod scheduler;
pub mod session;
pub mod shared;
pub mod stats;
pub mod trace;

pub use engine::EventQueue;
pub use faults::{FaultPlan, FaultSpec, Outage};
pub use network::{Catalog, Link, RetrievalModel};
pub use parallel::ParallelShardedSim;
pub use scheduler::{
    access_time_sharded, EventKind, Flow, Placement, Scheduler, ShardMap, ShardReport, ShardStats,
    ShardedSim, SimEvent,
};
pub use session::{run_session, SessionConfig, SessionOutcome};
pub use shared::{access_time_shared, run_session_shared};
pub use stats::{AccessStats, Histogram};
pub use trace::{Trace, TraceRecord};
