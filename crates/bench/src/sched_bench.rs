//! `experiments sched-bench`: the racing-portfolio SLO benchmark.
//!
//! A *matched replay*: one deterministic instance mix (small 4-relation
//! chain/star/cycle queries under deadlines from generous to
//! impossible-for-cold-paths, mid-size 6-relation queries under a 1 s
//! budget, plus oversized chains that only the anytime stage can touch)
//! is replayed against a fresh smoke service once per
//! backend — the `auto` portfolio and every static backend — so every
//! row of `sched_report.csv` answers exactly the same workload at the
//! same model budgets.
//!
//! The headline gate: `auto` must meet **strictly more**
//! deadline-carrying SLOs than the best single *static* backend, at a
//! **strictly lower** mean plan cost than `greedy`. Greedy is excluded
//! from the met-count comparison by construction: it is the service's
//! fallback, so its answers "meet" every deadline the model admits —
//! those are exactly the degraded plans the SLO taxonomy exists to
//! count, and the cost column is where it has to pay.
//!
//! Everything in the report is a pure function of the seed (races run on
//! model budgets, never wall-clock), so `sched_report.csv` and the
//! canonical event log drift-gate byte-for-byte at any thread count.

use qjo_core::{Query, QueryGenerator, QueryGraph};
use qjo_exec::{stream_seed, Parallelism};
use qjo_sched::smoke_service;
use qjo_serve::{Request, ServeEvent};

use crate::driver::{BenchArgs, Driver};
use crate::report::Table;

/// Backends the matched replay covers, in report order. `auto` first;
/// the static roster follows alphabetically.
pub const SCHED_BACKENDS: [&str; 8] =
    ["auto", "annealer", "dp", "greedy", "qaoa", "sa", "sqa", "tabu"];

/// Deadlines the small-instance mix cycles through: deadline-free,
/// tight-but-warm-feasible, generous (admits even a cold embed), and the
/// smallest nonzero deadline (1 ms — admits only sub-millisecond model
/// costs).
const SMALL_DEADLINES: [Option<u64>; 4] = [None, Some(30), Some(60_000), Some(1)];

/// Knobs for one scheduler benchmark run.
#[derive(Debug, Clone)]
pub struct SchedBenchConfig {
    /// Root seed for the service and the instance mix.
    pub seed: u64,
}

impl Default for SchedBenchConfig {
    fn default() -> Self {
        SchedBenchConfig { seed: 7 }
    }
}

/// One deterministic report row (per replayed backend).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedReportRow {
    /// Backend the mix was replayed against.
    pub backend: String,
    /// Requests replayed (identical for every row).
    pub requests: u64,
    /// Requests that carried a deadline.
    pub deadlines: u64,
    /// SLO classes among the deadline-carrying requests.
    pub met: u64,
    /// Degraded-to-fallback within budget.
    pub degraded: u64,
    /// Missed outright.
    pub missed: u64,
    /// Races run (nonzero only for `auto`).
    pub races: u64,
    /// Racer cancellations on a plateau, summed across races.
    pub cancelled: u64,
    /// Geometric mean plan cost over every answered request. Plan costs
    /// span ~30 orders of magnitude between the 4-relation and
    /// 42-relation instances, so an arithmetic mean is the big
    /// instances' cost to f64 precision; the geometric mean weighs
    /// every instance equally.
    pub geomean_cost: f64,
}

/// The headline SLO gate of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedGate {
    /// Deadline-carrying SLOs `auto` met.
    pub auto_met: u64,
    /// The best static backend (greedy excluded) and its met count.
    pub best_static: (String, u64),
    /// Geometric-mean plan cost of `auto`.
    pub auto_geomean_cost: f64,
    /// Geometric-mean plan cost of the greedy backend on the same mix.
    pub greedy_geomean_cost: f64,
    /// `auto_met > best_static.1 && auto_geomean_cost < greedy_geomean_cost`.
    pub pass: bool,
}

/// Aggregated outcome of one scheduler benchmark run.
#[derive(Debug, Clone)]
pub struct SchedBenchResult {
    /// Per-backend report rows, in [`SCHED_BACKENDS`] order.
    pub report: Vec<SchedReportRow>,
    /// Every replay's events, concatenated in backend order and
    /// re-sequenced densely (ids are globally unique across replays).
    pub events: Vec<ServeEvent>,
    /// The headline gate verdict.
    pub gate: SchedGate,
}

/// The deterministic instance mix: `(query, deadline_ms)` pairs shared
/// verbatim by every backend's replay.
pub fn generate_instances(seed: u64) -> Vec<(Query, Option<u64>)> {
    // Small instances stay at t = 4: every backend (the cold Pegasus
    // embed included) answers in well under a second there, which keeps
    // the deadline-free rows — where nothing is admission-screened — a
    // smoke-budget replay rather than a stress test.
    let shapes = [(QueryGraph::Chain, 4usize), (QueryGraph::Star, 4), (QueryGraph::Cycle, 4)];
    let mut queries = Vec::new();
    for (i, &(shape, t)) in shapes.iter().enumerate() {
        for j in 0..2u64 {
            let q = QueryGenerator::paper_defaults(shape, t)
                .generate(stream_seed(seed, (i as u64) * 2 + j));
            queries.push(q);
        }
    }
    let mut out = Vec::new();
    for &deadline in &SMALL_DEADLINES {
        for q in &queries {
            out.push((q.clone(), deadline));
        }
    }
    // Mid instances (t = 6) carry exactly one deadline: 1 s. That
    // budget admits every classical path and the racers, but diverts
    // the annealer's cold-embed estimate (~2 s of model time) — which
    // is also its wall-clock cliff: a cold Pegasus embed at t = 6 runs
    // for minutes, far past any smoke budget. Greedy is measurably
    // suboptimal on some of these (unlike at t = 4, where it ties the
    // DP optimum on every generated query), so this band is where the
    // portfolio's cost edge in the geometric mean comes from.
    for (i, shape) in
        [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle].into_iter().enumerate()
    {
        for j in 0..2u64 {
            let q = QueryGenerator::paper_defaults(shape, 6)
                .generate(stream_seed(seed, 200 + (i as u64) * 2 + j));
            out.push((q, Some(1_000)));
        }
    }
    // Oversized instances: the Theorem 5.3 bound (~5t²) puts t = 42 far
    // past every racer's variable screen and every static solver's
    // admission at 1 ms — only carried with that tight deadline, so no
    // replay ever formulates (or solves) an 8800-variable QUBO.
    for j in 0..2u64 {
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 42)
            .generate(stream_seed(seed, 100 + j));
        out.push((q, Some(1)));
    }
    out
}

/// Replays the mix against every backend and aggregates the report.
pub fn run(cfg: &SchedBenchConfig, parallelism: Parallelism) -> SchedBenchResult {
    let instances = generate_instances(cfg.seed);
    let mut report = Vec::new();
    let mut events: Vec<ServeEvent> = Vec::new();
    for backend in SCHED_BACKENDS {
        let (service, _handle) = smoke_service(cfg.seed, parallelism);
        let mut costs = Vec::new();
        let mut row = SchedReportRow {
            backend: backend.to_string(),
            requests: instances.len() as u64,
            deadlines: 0,
            met: 0,
            degraded: 0,
            missed: 0,
            races: 0,
            cancelled: 0,
            geomean_cost: 0.0,
        };
        for (k, (query, deadline_ms)) in instances.iter().enumerate() {
            let req = Request {
                id: format!("{backend}-r{k}"),
                backend: backend.to_string(),
                deadline_ms: *deadline_ms,
                query: query.clone(),
            };
            let resp = service.handle(&req);
            if let Some(cost) = resp.cost {
                costs.push(cost);
            }
            if deadline_ms.is_some() {
                row.deadlines += 1;
            }
        }
        for event in service.drain_events() {
            match event.slo {
                Some("met") => row.met += 1,
                Some("degraded") => row.degraded += 1,
                Some("missed") => row.missed += 1,
                _ => {}
            }
            if event.portfolio.is_some() {
                row.races += 1;
            }
            if let Some(cancelled) = &event.cancelled {
                row.cancelled += cancelled.split(',').filter(|s| !s.is_empty()).count() as u64;
            }
            events.push(event);
        }
        row.geomean_cost = if costs.is_empty() {
            0.0
        } else {
            (costs.iter().map(|c| c.ln()).sum::<f64>() / costs.len() as f64).exp()
        };
        report.push(row);
    }
    // One dense sequence across the concatenated replays, so the log
    // validates as a single stream.
    for (i, event) in events.iter_mut().enumerate() {
        event.seq = i as u64;
    }
    let gate = evaluate_gate(&report);
    SchedBenchResult { report, events, gate }
}

/// The `experiments sched-bench` stage: runs the matched replay, emits the
/// report and event logs, and returns the headline SLO gate's verdict.
pub fn stage(driver: &mut Driver, args: &BenchArgs) -> bool {
    let result = run(&SchedBenchConfig { seed: args.seed }, Parallelism::auto());
    driver.emit_table(
        "sched_report",
        "Scheduling: racing portfolio vs static backends on the matched mix",
        render_report(&result.report),
    );
    // As in serve-bench: the full event log carries wall-clock latencies
    // (volatile); the canonical projection is a pure function of the
    // request stream and drift-gates byte-for-byte.
    let rows = result.events.len() as u64;
    driver.emit("sched_events.jsonl", &qjo_serve::events::render_log(&result.events), rows, true);
    driver.emit(
        "sched_events.canonical.jsonl",
        &qjo_serve::events::render_canonical(&result.events),
        rows,
        false,
    );
    qjo_obs::info!(
        "sched: {} backends x {} requests",
        result.report.len(),
        result.report.first().map_or(0, |r| r.requests)
    );
    let gate = &result.gate;
    qjo_obs::info!(
        "SLO gate: auto met {} vs best static {} ({}); geomean cost {:.3e} vs greedy {:.3e}",
        gate.auto_met,
        gate.best_static.1,
        gate.best_static.0,
        gate.auto_geomean_cost,
        gate.greedy_geomean_cost
    );
    if !gate.pass {
        qjo_obs::error!(
            "sched SLO gate failed: auto must meet strictly more deadlines than the best \
             static backend and beat greedy on geometric-mean plan cost"
        );
    }
    gate.pass
}

/// Evaluates the headline gate over the report rows.
pub fn evaluate_gate(report: &[SchedReportRow]) -> SchedGate {
    let row = |name: &str| report.iter().find(|r| r.backend == name);
    let auto = row("auto").expect("auto row present");
    let greedy = row("greedy").expect("greedy row present");
    let best_static = report
        .iter()
        .filter(|r| r.backend != "auto" && r.backend != "greedy")
        .max_by_key(|r| (r.met, std::cmp::Reverse(r.backend.clone())))
        .expect("static rows present");
    let pass = auto.met > best_static.met && auto.geomean_cost < greedy.geomean_cost;
    SchedGate {
        auto_met: auto.met,
        best_static: (best_static.backend.clone(), best_static.met),
        auto_geomean_cost: auto.geomean_cost,
        greedy_geomean_cost: greedy.geomean_cost,
        pass,
    }
}

/// Renders the deterministic report table.
pub fn render_report(rows: &[SchedReportRow]) -> Table {
    let mut table = Table::new(vec![
        "backend",
        "requests",
        "deadlines",
        "slo_met",
        "slo_degraded",
        "slo_missed",
        "races",
        "racers_cancelled",
        "geomean_cost",
    ]);
    for r in rows {
        table.push_row(vec![
            r.backend.clone(),
            r.requests.to_string(),
            r.deadlines.to_string(),
            r.met.to_string(),
            r.degraded.to_string(),
            r.missed.to_string(),
            r.races.to_string(),
            r.cancelled.to_string(),
            format!("{:.6e}", r.geomean_cost),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_instance_mix_is_deterministic_and_caps_oversized_deadlines() {
        let a = generate_instances(7);
        let b = generate_instances(7);
        assert_eq!(a.len(), b.len());
        for ((qa, da), (qb, db)) in a.iter().zip(&b) {
            assert_eq!(da, db);
            assert_eq!(qa.log_cards(), qb.log_cards());
        }
        // Every oversized instance carries the 1 ms deadline, so no
        // backend ever formulates it; every mid instance carries the
        // 1 s budget that keeps the annealer's cold embed diverted.
        for (q, d) in &a {
            if q.num_relations() > 20 {
                assert_eq!(*d, Some(1));
            } else if q.num_relations() == 6 {
                assert_eq!(*d, Some(1_000));
            }
        }
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn gate_logic_requires_strict_wins_on_both_axes() {
        let row = |backend: &str, met: u64, geomean_cost: f64| SchedReportRow {
            backend: backend.into(),
            requests: 10,
            deadlines: 8,
            met,
            degraded: 8 - met,
            missed: 0,
            races: 0,
            cancelled: 0,
            geomean_cost,
        };
        let report = vec![
            row("auto", 8, 90.0),
            row("dp", 6, 95.0),
            row("sa", 7, 99.0),
            row("greedy", 8, 100.0),
        ];
        let gate = evaluate_gate(&report);
        assert_eq!(gate.best_static, ("sa".to_string(), 7));
        assert!(gate.pass);
        // A tie with the best static backend fails…
        let tied = vec![row("auto", 7, 90.0), row("sa", 7, 99.0), row("greedy", 8, 100.0)];
        assert!(!evaluate_gate(&tied).pass);
        // …and so does failing to beat greedy on cost.
        let costly = vec![row("auto", 8, 100.0), row("sa", 7, 99.0), row("greedy", 8, 100.0)];
        assert!(!evaluate_gate(&costly).pass);
    }

    #[test]
    fn report_rendering_is_byte_stable() {
        let rows = vec![SchedReportRow {
            backend: "auto".into(),
            requests: 26,
            deadlines: 20,
            met: 20,
            degraded: 0,
            missed: 0,
            races: 26,
            cancelled: 31,
            geomean_cost: 12345.678,
        }];
        let a = render_report(&rows).to_csv();
        assert_eq!(a, render_report(&rows).to_csv());
        assert!(a.contains("racers_cancelled"), "{a}");
        assert!(a.contains("1.234568e4"), "{a}");
    }
}
