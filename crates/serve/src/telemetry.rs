//! Per-service telemetry: the event sink, serve-counter tallies, and the
//! online work model behind calibrated admission.
//!
//! The global `qjo-obs` registry aggregates every service in the process
//! (tests included), which makes it useless for a *per-service* stats
//! snapshot. [`Telemetry`] therefore keeps its own tallies under the
//! **same names** as the global counters. Both are written at one site,
//! the service's private `count` helper, which every `serve.*` counter
//! the service owns goes through (including the serve loop's
//! `serve.requests.malformed` and `serve.stats.requests`, via
//! [`Service::note_malformed`](crate::service::Service::note_malformed)
//! and [`Service::note_stats`](crate::service::Service::note_stats)). A
//! stats snapshot therefore reconciles exactly with the run manifest
//! whenever one service owns the process (the `qjo-serve` binary and
//! `serve-bench` both do).
//!
//! Events accumulate until drained; wall-clock latencies additionally
//! feed a [`WorkModel`] keyed by `(backend, cache-state)` so admission
//! can be calibrated from observed rates instead of the static
//! constants in [`backends`](crate::backends).

use std::collections::BTreeMap;
use std::sync::Mutex;

use qjo_obs::online::{WorkModel, WorkModelSnapshot};

use crate::events::ServeEvent;

/// Sliding-window size for per-key latency quantiles.
pub const WORK_WINDOW: usize = 128;

/// EWMA smoothing factor for per-key latency means.
pub const WORK_ALPHA: f64 = 0.2;

/// Minimum observations per key before a calibrated estimate is trusted
/// over the static work model.
pub const DEFAULT_MIN_SAMPLES: u64 = 3;

/// The work-model key for a request outcome: backend name refined by the
/// cache state that dominated its cost. Embedding state wins over the
/// formulation-cache state (a resident embedding is the difference
/// between milliseconds and seconds on the annealer path); classical
/// backends that never touch the cache key on the bare backend name.
pub fn work_key(backend: &str, cache: Option<&str>, embed: Option<&str>) -> String {
    match (embed, cache) {
        (Some("cold"), _) => format!("{backend}:cold"),
        (Some(_), _) => format!("{backend}:warm"),
        (None, Some(state)) => format!("{backend}:{state}"),
        (None, None) => backend.to_string(),
    }
}

struct TelemetryState {
    seq: u64,
    events: Vec<ServeEvent>,
    counters: BTreeMap<String, u64>,
    work: WorkModel,
}

/// One service's own event log, counter tallies, and work model.
pub struct Telemetry {
    state: Mutex<TelemetryState>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An empty telemetry sink with the default work-model shape.
    pub fn new() -> Self {
        Telemetry {
            state: Mutex::new(TelemetryState {
                seq: 0,
                events: Vec::new(),
                counters: BTreeMap::new(),
                work: WorkModel::new(WORK_WINDOW, WORK_ALPHA),
            }),
        }
    }

    /// Adds `n` to the local tally `name`. The service calls this next
    /// to the identically-named global counter, at its one counting site.
    pub fn add(&self, name: &str, n: u64) {
        let mut state = self.state.lock().expect("telemetry lock");
        *state.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Records one event: assigns the next dense sequence number, logs
    /// it, and feeds its latency into the work model under
    /// [`work_key`]. Returns the assigned sequence number.
    pub fn record(&self, mut event: ServeEvent) -> u64 {
        let mut state = self.state.lock().expect("telemetry lock");
        event.seq = state.seq;
        state.seq += 1;
        let key = work_key(&event.backend, event.cache, event.embed);
        let latency = event.latency_us;
        state.work.observe(&key, latency);
        state.events.push(event);
        state.seq - 1
    }

    /// Takes every buffered event, leaving tallies and the work model in
    /// place. Sequence numbers keep counting across drains.
    pub fn drain_events(&self) -> Vec<ServeEvent> {
        std::mem::take(&mut self.state.lock().expect("telemetry lock").events)
    }

    /// Total events recorded since construction (drained or not).
    pub fn events_recorded(&self) -> u64 {
        self.state.lock().expect("telemetry lock").seq
    }

    /// Events buffered and not yet drained.
    pub fn events_pending(&self) -> usize {
        self.state.lock().expect("telemetry lock").events.len()
    }

    /// The calibrated cost estimate for `key`, if at least `min_samples`
    /// latencies have been observed under it (single-lock convenience
    /// over [`Telemetry::work_model`]).
    pub fn cost_estimate_us(&self, key: &str, min_samples: u64) -> Option<u64> {
        self.state
            .lock()
            .expect("telemetry lock")
            .work
            .snapshot()
            .cost_estimate_us(key, min_samples)
    }

    /// A copy of the local counter tallies.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.state.lock().expect("telemetry lock").counters.clone()
    }

    /// A point-in-time snapshot of the online work model.
    pub fn work_model(&self) -> WorkModelSnapshot {
        self.state.lock().expect("telemetry lock").work.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(backend: &str, cache: Option<&'static str>, latency_us: u64) -> ServeEvent {
        ServeEvent {
            seq: u64::MAX, // record() must overwrite this
            id: "r".into(),
            backend: backend.into(),
            fingerprint: "fp".into(),
            deadline_ms: None,
            admitted: true,
            cache,
            embed: None,
            outcome: "ok",
            reason: None,
            slo: None,
            cost: Some(1.0),
            est_cost_us: None,
            latency_us,
            portfolio: None,
            winner: None,
            cancelled: None,
        }
    }

    #[test]
    fn record_assigns_dense_sequence_numbers_across_drains() {
        let t = Telemetry::new();
        assert_eq!(t.record(event("sa", Some("miss"), 10)), 0);
        assert_eq!(t.record(event("sa", Some("hit"), 5)), 1);
        let drained = t.drain_events();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].seq, 0);
        assert_eq!(t.record(event("dp", None, 1)), 2);
        assert_eq!(t.events_recorded(), 3);
        assert_eq!(t.drain_events().len(), 1);
        assert!(t.drain_events().is_empty());
    }

    #[test]
    fn work_model_keys_refine_backend_by_cache_state() {
        assert_eq!(work_key("annealer", Some("hit"), Some("cold")), "annealer:cold");
        assert_eq!(work_key("annealer", Some("hit"), Some("hit")), "annealer:warm");
        assert_eq!(work_key("sa", Some("miss"), None), "sa:miss");
        assert_eq!(work_key("sa", Some("hit"), None), "sa:hit");
        assert_eq!(work_key("greedy", None, None), "greedy");
        let t = Telemetry::new();
        t.record(event("sa", Some("miss"), 100));
        t.record(event("sa", Some("hit"), 10));
        let snap = t.work_model();
        assert!(snap.get("sa:miss").is_some());
        assert!(snap.get("sa:hit").is_some());
    }

    #[test]
    fn tallies_accumulate_under_their_counter_names() {
        let t = Telemetry::new();
        t.add("serve.requests", 1);
        t.add("serve.requests", 1);
        t.add("serve.slo.met.sa", 1);
        let c = t.counters();
        assert_eq!(c.get("serve.requests"), Some(&2));
        assert_eq!(c.get("serve.slo.met.sa"), Some(&1));
    }
}
