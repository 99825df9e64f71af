//! The PostBOUND-style optimizer abstraction.
//!
//! Every solver in the workspace — classical DP/greedy, QUBO
//! metaheuristics, the SQA engine, the annealer pipeline, and the QAOA
//! statevector simulator — is wrapped behind one small trait so the
//! serving loop can treat them interchangeably: `pre_check` a request
//! (deterministic admission + cost model), `optimize_join_order` it, or
//! `describe` the backend for reports. `optimize_join_order` is the one
//! entry point: it receives the request's [`CanonicalQuery`], computed
//! once per request by the service, so no backend canonicalises again.
//!
//! Cost estimates are *nominal microseconds from a static work model*,
//! not measurements: admission and deadline decisions must be
//! bit-identical across thread counts and machine speeds, so wall-clock
//! never feeds back into control flow.

use qjo_core::Query;

use crate::cache::CacheStatus;
use crate::fingerprint::CanonicalQuery;

/// What a backend is, for reports and routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendInfo {
    /// Stable identifier used in requests, reports, and counters
    /// (e.g. `"dp"`, `"annealer"`).
    pub name: &'static str,
    /// Coarse family: `"classical"`, `"qubo"`, `"quantum-sim"`, or
    /// `"portfolio"` (the `qjo-sched` racing scheduler).
    pub family: &'static str,
}

/// Deterministic admission verdict for a request.
#[derive(Debug, Clone, PartialEq)]
pub struct PreCheck {
    /// Whether the backend can answer this query at all.
    pub admissible: bool,
    /// Why not, when `admissible` is false.
    pub reason: Option<String>,
    /// Nominal work in model-microseconds. Compared against
    /// `deadline_ms * 1000` by the service; never a measurement.
    pub cost_estimate_us: u64,
}

impl PreCheck {
    /// An admissible verdict with the given nominal cost.
    pub fn ok(cost_estimate_us: u64) -> Self {
        PreCheck { admissible: true, reason: None, cost_estimate_us }
    }

    /// An inadmissible verdict carrying its reason.
    pub fn reject(reason: impl Into<String>) -> Self {
        PreCheck { admissible: false, reason: Some(reason.into()), cost_estimate_us: u64::MAX }
    }
}

/// Outcome metadata of a racing-portfolio solve (produced by the
/// `qjo-sched` crate's `auto` backend, absent everywhere else). Flat
/// comma-joined strings so it drops straight into the per-request event
/// schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RaceOutcome {
    /// Sorted, comma-joined names of every entrant that produced a
    /// candidate plan (always includes `anytime`).
    pub portfolio: String,
    /// The entrant whose plan won (lowest plan cost, name tie-break).
    pub winner: String,
    /// Sorted, comma-joined names of racers cancelled on a convergence
    /// plateau; empty when none were.
    pub cancelled: String,
}

/// A served join order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Join order in the requester's original relation labels.
    pub order: Vec<usize>,
    /// Cost of that order under the requester's *exact* query (not the
    /// bucketed canonical one), as the paper's `C_out` (Equation 2).
    pub cost: f64,
    /// Formulation-cache outcome, for backends that formulate.
    pub cache: Option<CacheStatus>,
    /// Embedding-cache outcome *actually observed during this solve*
    /// (`"cold"` built one, `"hit"` reused one), for backends that
    /// embed. Carried in the plan — rather than inferred from global
    /// cache-stat deltas — so telemetry attribution stays correct when
    /// concurrent requests interleave their cache traffic.
    pub embed: Option<&'static str>,
    /// True when the plan came from the greedy fallback instead: the
    /// solver decoded no valid order, or the query lies outside the
    /// backend's `pre_check` envelope.
    pub fallback: bool,
    /// Race metadata when a portfolio produced this plan.
    pub race: Option<RaceOutcome>,
}

/// A join-order optimisation backend, PostBOUND-style.
pub trait JoinOrderOptimizer: Send + Sync {
    /// Optimises the join order of `query`. `canon` is its canonical
    /// form under the shared cache's fingerprint config (formulating
    /// backends key the cache on it); `budget_us` is the remaining
    /// deadline budget in *model* microseconds, `None` for deadline-free
    /// requests. Only the `qjo-sched` portfolio reads the budget, deriving
    /// its racers' chunk budgets from it — never from wall-clock, so
    /// plans stay a pure function of the request. Never fails: a backend
    /// that cannot answer returns the greedy plan marked
    /// [`Plan::fallback`].
    fn optimize_join_order(
        &self,
        query: &Query,
        canon: &CanonicalQuery,
        budget_us: Option<u64>,
    ) -> Plan;

    /// Identifies the backend.
    fn describe(&self) -> BackendInfo;

    /// Deterministic admission check and nominal cost estimate. Must be
    /// cheap, side-effect free, and identical across thread counts.
    fn pre_check(&self, query: &Query) -> PreCheck;
}
