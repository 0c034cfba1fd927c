//! Adaptive precision scheduling over the frozen subtransitive engine.
//!
//! The paper's conclusion sketches "a hybrid linear/cubic combination":
//! the subtransitive analysis answers every query in (amortized) linear
//! time, but the ≈₁/≈₂ congruences it buys linearity with merge flow
//! through data structures — some answers over-approximate. Van Horn
//! and Mairson's completeness results (0CFA is PTIME-complete) say the
//! cure cannot be wholesale: escalating *every* query to cubic CFA
//! forfeits the paper's entire contribution. Escalation must be
//! selective.
//!
//! This crate is that selection logic, in two parts layered strictly
//! *over* the frozen [`QueryEngine`](stcfa_core::QueryEngine):
//!
//! - [`SuspicionIndex`] — the **degradation detector**. One `O(N + E)`
//!   pass at freeze time scores every condensation component by the
//!   congruence merge nodes, multi-abstraction SCCs, and high-fan-in
//!   `dom`/`ran` nodes reachable from it. Suspicion 0 is a *certificate*:
//!   the answer equals full cubic CFA. The index is 4 bytes per
//!   component and persists with the snapshot.
//! - [`PrecisionScheduler`] — the **tier scheduler**: Tier 0
//!   (subtransitive, always), Tier 1 (polyvariant summaries), Tier 2
//!   (one whole-program cubic run per snapshot, for snapshots within
//!   the node budget), with a per-site answer cache. Every answer
//!   carries a [`PrecisionInfo`]: its grade (`exact` / `refined` /
//!   `approx`) and tier.
//!
//! Consumers: the server's protocol-v2 `query`/`rule` responses and
//! `stcfa query --precision` surface the grade per answer; the lint
//! engine derives `"confidence":"proven|likely"` for its diagnostics
//! from the same certificates.

pub mod detector;
pub mod scheduler;

pub use detector::SuspicionIndex;
pub use scheduler::{PrecisionClass, PrecisionInfo, PrecisionScheduler, SchedulerStats, Tier};
