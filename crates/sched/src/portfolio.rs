//! The racing portfolio backend.
//!
//! One request, one race: an *anytime* classical stage (greedy always,
//! exact DP when the query is small enough) produces an immediate
//! fallback plan, then SA, SQA, and tabu racers spend the remaining
//! deadline budget in fixed-size chunks, each racer cancelling itself as
//! soon as its best-so-far energy trajectory
//! [plateaus](qjo_obs::convergence::plateaued). The cheapest decoded plan
//! wins (plan cost, then name, as the tie-break).
//!
//! Every decision is a pure function of the request, the configured
//! seed, and the model budget: chunk counts come from the static work
//! model (or an explicitly installed [`WorkModelSnapshot`] calibration),
//! racer chunks are seeded per `(racer, chunk)` via
//! [`stream_seed`], and plateau detection reads recorded energies — never
//! wall-clock. Winner, cancellations, and the final plan are therefore
//! byte-identical at any `QJO_THREADS`.

use std::sync::{Arc, Mutex};

use qjo_core::classical::{dp_optimal, greedy_min_cost};
use qjo_core::{decode_assignment, JoinOrder, Query};
use qjo_exec::{par_map, stream_seed, Parallelism};
use qjo_obs::convergence::plateaued;
use qjo_obs::online::WorkModelSnapshot;
use qjo_qubo::ising::spins_to_bits;
use qjo_qubo::solve::{SimulatedAnnealing, TabuSearch};
use qjo_serve::{
    BackendInfo, CacheEntry, CacheStatus, CanonicalQuery, FormulationCache, JoinOrderOptimizer,
    Plan, PreCheck, RaceOutcome,
};

use crate::features::InstanceFeatures;

/// Model-µs budget assumed for a deadline-free request.
pub const DEFAULT_BUDGET_US: u64 = 20_000;
/// Energy improvement below this is "no progress" for plateau detection.
pub const DEFAULT_EPSILON: f64 = 1e-9;
/// Recorded points with no improvement before a racer self-cancels.
pub const DEFAULT_PLATEAU_WINDOW: usize = 3;
/// Racers are skipped outright above this QUBO-variable bound: a chunk
/// there costs more than any sane deadline, and even *formulating* the
/// instance (quadratic in variables) would dwarf the anytime stage.
pub const DEFAULT_MAX_RACER_VARS: u64 = 1024;
/// Largest query the anytime stage solves exactly (DP is `O(3^t)`).
pub const DEFAULT_DP_MAX_RELATIONS: usize = 12;

const SA_CHUNK_SWEEPS: usize = 25;
const TABU_CHUNK_ITERATIONS: usize = 100;
const SQA_CHUNK_READS: usize = 1;
const SQA_ANNEALING_TIME_US: f64 = 4.0;

/// The fixed racer roster. Index order is the seed-stream order, so a
/// skipped racer never shifts another racer's RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Racer {
    Sa,
    Sqa,
    Tabu,
}

impl Racer {
    const ALL: [Racer; 3] = [Racer::Sa, Racer::Sqa, Racer::Tabu];

    fn name(self) -> &'static str {
        match self {
            Racer::Sa => "sa",
            Racer::Sqa => "sqa",
            Racer::Tabu => "tabu",
        }
    }

    /// Chunk ceiling: how far a racer may run under an unbounded budget.
    fn max_chunks(self) -> usize {
        match self {
            Racer::Sa => 16,
            Racer::Sqa => 4,
            Racer::Tabu => 8,
        }
    }

    /// Static model-µs for one chunk on an `n`-variable QUBO, matching
    /// the per-flip charging of the serving backends' `pre_check`s.
    fn chunk_model_us(self, n: u64) -> u64 {
        let flips = match self {
            Racer::Sa => SA_CHUNK_SWEEPS as u64 * n,
            // One read of 4 µs × 2 sweeps/µs over 4 Trotter slices.
            Racer::Sqa => {
                let cfg = qjo_anneal::SqaConfig::default();
                let sweeps = (SQA_ANNEALING_TIME_US * cfg.sweeps_per_us).ceil() as u64;
                SQA_CHUNK_READS as u64 * sweeps * cfg.trotter_slices as u64 * n
            }
            Racer::Tabu => TABU_CHUNK_ITERATIONS as u64 * n,
        };
        (flips / 1000).max(1)
    }
}

/// One racer's outcome inside a [`RaceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RacerResult {
    /// Racer name (`"sa"`, `"sqa"`, `"tabu"`).
    pub name: &'static str,
    /// False when the racer was skipped (no budget for even one chunk,
    /// or the instance failed the variable-count screen).
    pub entered: bool,
    /// True when the racer was cancelled on a convergence plateau before
    /// exhausting its chunk budget.
    pub cancelled: bool,
    /// Chunks the budget allowed.
    pub chunks_budgeted: usize,
    /// Chunks actually run (`< chunks_budgeted` iff cancelled).
    pub chunks_run: usize,
    /// Best-so-far QUBO energy after each chunk — the exact trajectory
    /// plateau detection evaluated.
    pub trajectory: Vec<(u64, f64)>,
    /// The decoded plan in original labels with its `C_out` cost, when
    /// the racer's best assignment decoded to a valid join order.
    pub plan: Option<(Vec<usize>, f64)>,
}

/// Everything a race decided, for reports and tests. `Debug`-format two
/// of these to compare races byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    /// The model-µs budget the race ran under.
    pub budget_us: u64,
    /// Formulation-cache outcome, when any racer entered (a race with no
    /// racers never touches the cache).
    pub cache: Option<CacheStatus>,
    /// The anytime stage's plan: order, cost, and which classical solver
    /// produced it (`"greedy"` or `"dp"`).
    pub anytime: (Vec<usize>, f64, &'static str),
    /// Per-racer outcomes, in roster order.
    pub racers: Vec<RacerResult>,
    /// Winning entrant (`"anytime"` or a racer name).
    pub winner: &'static str,
}

impl RaceReport {
    /// Sorted, comma-joined entrants (always includes `anytime`).
    pub fn portfolio(&self) -> String {
        let mut names: Vec<&str> =
            self.racers.iter().filter(|r| r.entered).map(|r| r.name).collect();
        names.push("anytime");
        names.sort_unstable();
        names.join(",")
    }

    /// Sorted, comma-joined cancelled racers (empty when none).
    pub fn cancelled(&self) -> String {
        let mut names: Vec<&str> =
            self.racers.iter().filter(|r| r.cancelled).map(|r| r.name).collect();
        names.sort_unstable();
        names.join(",")
    }

    /// The race metadata in event-schema form.
    pub fn outcome(&self) -> RaceOutcome {
        RaceOutcome {
            portfolio: self.portfolio(),
            winner: self.winner.to_string(),
            cancelled: self.cancelled(),
        }
    }
}

/// The `sched.*` counter increments one race contributes (see the
/// taxonomy in [`qjo_obs::manifest::is_sched`]). A pure function of the
/// report, so tests can compare counter effects without global state.
pub fn report_counters(report: &RaceReport) -> std::collections::BTreeMap<String, u64> {
    let mut c = std::collections::BTreeMap::new();
    let mut bump = |name: String, n: u64| *c.entry(name).or_insert(0) += n;
    bump("sched.races".into(), 1);
    bump("sched.anytime.plans".into(), 1);
    bump(format!("sched.win.{}", report.winner), 1);
    for r in &report.racers {
        if r.entered {
            bump("sched.racers.entered".into(), 1);
            bump(format!("sched.racers.entered.{}", r.name), 1);
        } else {
            bump(format!("sched.racers.skipped.{}", r.name), 1);
        }
        if r.cancelled {
            bump("sched.racers.cancelled".into(), 1);
            bump(format!("sched.racers.cancelled.{}", r.name), 1);
        }
    }
    c
}

/// The `auto` backend: races the portfolio under the admission budget.
pub struct PortfolioBackend {
    /// Shared formulation cache (the same one the static backends use,
    /// so races warm classes for them and vice versa).
    pub cache: Arc<FormulationCache>,
    /// Base seed; racer `i` chunk `c` derives `((seed, i), c)` streams.
    pub seed: u64,
    /// Worker threads for the racer fan-out; wall-clock only.
    pub parallelism: Parallelism,
    /// Plateau threshold (energy units).
    pub epsilon: f64,
    /// Plateau window (recorded points).
    pub plateau_window: usize,
    /// Budget assumed when the request carries no deadline.
    pub default_budget_us: u64,
    /// Anytime DP cap in relations.
    pub dp_max_relations: usize,
    /// Racer screen: skip all racers above this variable bound.
    pub max_racer_vars: u64,
    /// Optional observed-latency calibration, installed via
    /// [`SchedHandle`](crate::SchedHandle). `None` (the default) keeps
    /// the static model and byte-identical smoke baselines.
    pub calibration: Arc<Mutex<Option<WorkModelSnapshot>>>,
}

impl PortfolioBackend {
    /// A portfolio with the default race shape over `cache`.
    pub fn new(cache: Arc<FormulationCache>, seed: u64, parallelism: Parallelism) -> Self {
        PortfolioBackend {
            cache,
            seed,
            parallelism,
            epsilon: DEFAULT_EPSILON,
            plateau_window: DEFAULT_PLATEAU_WINDOW,
            default_budget_us: DEFAULT_BUDGET_US,
            dp_max_relations: DEFAULT_DP_MAX_RELATIONS,
            max_racer_vars: DEFAULT_MAX_RACER_VARS,
            calibration: Arc::new(Mutex::new(None)),
        }
    }

    /// Model-µs one chunk of `racer` costs on an `n`-variable instance:
    /// the calibrated per-request estimate spread over the chunk ceiling
    /// when an observation exists for the racer's warm key, else the
    /// static model.
    fn chunk_cost_us(&self, racer: Racer, n: u64) -> u64 {
        let calibrated = self
            .calibration
            .lock()
            .expect("calibration lock")
            .as_ref()
            .and_then(|snap| snap.cost_estimate_us(&format!("{}:hit", racer.name()), 1));
        match calibrated {
            Some(est) => (est / racer.max_chunks() as u64).max(1),
            None => racer.chunk_model_us(n),
        }
    }

    /// Runs the full race for `query` under `budget_us` model-µs
    /// (`None` → [`Self::default_budget_us`]).
    pub fn race(&self, query: &Query, budget_us: Option<u64>) -> (Plan, RaceReport) {
        self.race_canonical(query, &self.cache.canonicalize(query), budget_us)
    }

    /// [`race`](Self::race) for a request already canonicalised (`canon`
    /// keys the feature peek and the formulation lookup).
    pub fn race_canonical(
        &self,
        query: &Query,
        canon: &CanonicalQuery,
        budget_us: Option<u64>,
    ) -> (Plan, RaceReport) {
        let t = query.num_relations();
        let budget = budget_us.unwrap_or(self.default_budget_us);

        // Anytime stage: always have a plan before any racer starts.
        let (gjo, gcost) = greedy_min_cost(query);
        let mut anytime = (gjo.order, gcost, "greedy");
        if t <= self.dp_max_relations {
            let (djo, dcost) = dp_optimal(query);
            if dcost < anytime.1 {
                anytime = (djo.order, dcost, "dp");
            }
        }

        // Budget derivation: an even model-µs share per roster slot; a
        // racer that cannot afford one chunk is skipped. Chunk costs use
        // the *bound* on variables so the decision (and whether we pay
        // for a formulation at all) never depends on cache contents.
        let features = InstanceFeatures::extract(&self.cache, query, canon);
        let share = budget / Racer::ALL.len() as u64;
        let budgets: Vec<usize> = Racer::ALL
            .iter()
            .map(|&racer| {
                if features.qubo_vars > self.max_racer_vars {
                    return 0;
                }
                let chunk = self.chunk_cost_us(racer, features.qubo_vars);
                if share < chunk {
                    0
                } else {
                    ((share / chunk) as usize).min(racer.max_chunks())
                }
            })
            .collect();

        let mut racers: Vec<RacerResult> = Racer::ALL
            .iter()
            .zip(&budgets)
            .map(|(&racer, &chunks)| RacerResult {
                name: racer.name(),
                entered: chunks > 0,
                cancelled: false,
                chunks_budgeted: chunks,
                chunks_run: 0,
                trajectory: Vec::new(),
                plan: None,
            })
            .collect();

        let mut cache_status = None;
        if budgets.iter().any(|&c| c > 0) {
            let (entry, status) = self.cache.lookup_canonical(canon);
            cache_status = Some(status);
            let jobs: Vec<(usize, Racer, usize)> = Racer::ALL
                .iter()
                .enumerate()
                .zip(&budgets)
                .filter(|(_, &chunks)| chunks > 0)
                .map(|((i, &racer), &chunks)| (i, racer, chunks))
                .collect();
            let entry_ref = &entry;
            let raced = par_map(jobs, self.parallelism, |(i, racer, chunks)| {
                (i, self.run_racer(racer, entry_ref, stream_seed(self.seed, i as u64), chunks))
            });
            for (i, run) in raced {
                let slot = &mut racers[i];
                slot.cancelled = run.cancelled;
                slot.chunks_run = run.chunks_run;
                slot.trajectory = run.trajectory;
                slot.plan = run
                    .best_bits
                    .and_then(|bits| {
                        decode_assignment(
                            &bits,
                            &entry.formulation.registry,
                            &entry.canonical_query,
                        )
                    })
                    .map(|jo| {
                        let order = canon.order_to_original(&jo.order);
                        let cost = JoinOrder::new(order.clone(), t)
                            .expect("decoded orders are permutations")
                            .cost(query);
                        (order, cost)
                    })
                    .filter(|(_, cost)| cost.is_finite());
            }
        }

        // The winner: cheapest plan cost, racer name as the tie-break —
        // with `anytime` listed first so ties go to the free plan.
        let mut candidates: Vec<(&'static str, &Vec<usize>, f64)> =
            vec![("anytime", &anytime.0, anytime.1)];
        for r in &racers {
            if let Some((order, cost)) = &r.plan {
                candidates.push((r.name, order, *cost));
            }
        }
        let (winner, order, cost) = candidates
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite costs").then(a.0.cmp(b.0)))
            .map(|&(name, order, cost)| (name, order.clone(), cost))
            .expect("anytime always present");
        drop(candidates);

        let report = RaceReport { budget_us: budget, cache: cache_status, anytime, racers, winner };
        let plan = Plan {
            order,
            cost,
            cache: cache_status,
            embed: None,
            fallback: false,
            race: Some(report.outcome()),
        };
        (plan, report)
    }

    /// One racer's chunk loop: solve a chunk, fold the best energy into
    /// the trajectory, cancel when the trajectory plateaus with chunks
    /// still remaining.
    fn run_racer(
        &self,
        racer: Racer,
        entry: &CacheEntry,
        racer_seed: u64,
        chunks: usize,
    ) -> RacerRun {
        let qubo = &entry.formulation.qubo;
        // Pre-compiled once per racer; only the SQA path needs it.
        let ising = match racer {
            Racer::Sqa => Some(qubo.to_ising()),
            _ => None,
        };
        let curve = qjo_obs::convergence::series("sched", racer.name());
        let mut run =
            RacerRun { cancelled: false, chunks_run: 0, trajectory: Vec::new(), best_bits: None };
        let mut best_energy = f64::INFINITY;
        for c in 0..chunks {
            let chunk_seed = stream_seed(racer_seed, c as u64);
            let solved: Option<(Vec<bool>, f64)> = match racer {
                Racer::Sa => SimulatedAnnealing {
                    restarts: 1,
                    sweeps: SA_CHUNK_SWEEPS,
                    schedule: None,
                    seed: chunk_seed,
                    parallelism: Parallelism::sequential(),
                }
                .solve(qubo)
                .ok()
                .map(|s| (s.assignment, s.energy)),
                Racer::Tabu => TabuSearch {
                    restarts: 1,
                    iterations: TABU_CHUNK_ITERATIONS,
                    tenure: None,
                    seed: chunk_seed,
                    parallelism: Parallelism::sequential(),
                }
                .solve(qubo)
                .ok()
                .map(|s| (s.assignment, s.energy)),
                Racer::Sqa => {
                    let config = qjo_anneal::SqaConfig {
                        seed: chunk_seed,
                        parallelism: Parallelism::sequential(),
                        ..qjo_anneal::SqaConfig::default()
                    };
                    let reads = qjo_anneal::sqa::sample(
                        ising.as_ref().expect("sqa precompiles its ising model"),
                        &config,
                        SQA_ANNEALING_TIME_US,
                        SQA_CHUNK_READS,
                    );
                    reads.first().map(|spins| {
                        let bits = spins_to_bits(spins);
                        let energy = qubo.energy(&bits).expect("formulation-sized assignment");
                        (bits, energy)
                    })
                }
            };
            run.chunks_run += 1;
            if let Some((bits, energy)) = solved {
                // NaN never improves (`<` is false), so a divergent chunk
                // leaves the best plan untouched and the flat trajectory
                // point it records counts toward the plateau.
                if energy < best_energy {
                    best_energy = energy;
                    run.best_bits = Some(bits);
                }
            }
            run.trajectory.push((c as u64, best_energy));
            curve.record(c as u64, best_energy);
            if c + 1 < chunks && plateaued(&run.trajectory, self.epsilon, self.plateau_window) {
                run.cancelled = true;
                break;
            }
        }
        run
    }
}

/// What `run_racer` hands back to the race (bits still in canonical
/// labels; decoding happens once, on the main thread).
struct RacerRun {
    cancelled: bool,
    chunks_run: usize,
    trajectory: Vec<(u64, f64)>,
    best_bits: Option<Vec<bool>>,
}

impl JoinOrderOptimizer for PortfolioBackend {
    fn optimize_join_order(
        &self,
        query: &Query,
        canon: &CanonicalQuery,
        budget_us: Option<u64>,
    ) -> Plan {
        let (plan, report) = self.race_canonical(query, canon, budget_us);
        for (name, n) in report_counters(&report) {
            qjo_obs::counter(&name).add(n);
        }
        plan
    }

    fn describe(&self) -> BackendInfo {
        BackendInfo { name: "auto", family: "portfolio" }
    }

    fn pre_check(&self, query: &Query) -> PreCheck {
        // Admission charges only the anytime stage: the portfolio always
        // has that plan ready inside any nonzero budget, and the racers
        // scale themselves to whatever remains. Mirrors the greedy and
        // DP backends' own models.
        let t = query.num_relations() as u64;
        let greedy = (t * t / 10).max(1);
        let dp = if t as usize <= self.dp_max_relations {
            (3u64.saturating_pow(t as u32) / 1000).max(1)
        } else {
            0
        };
        PreCheck::ok(greedy + dp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_core::{JoEncoder, QueryGenerator, QueryGraph};
    use qjo_serve::FingerprintConfig;

    fn fresh_backend(parallelism: Parallelism) -> PortfolioBackend {
        let cache =
            Arc::new(FormulationCache::new(JoEncoder::default(), FingerprintConfig::default(), 8));
        PortfolioBackend::new(cache, 7, parallelism)
    }

    fn query(graph: QueryGraph, t: usize, seed: u64) -> Query {
        QueryGenerator::paper_defaults(graph, t).generate(seed)
    }

    #[test]
    fn races_are_byte_identical_across_thread_counts() {
        let race_all = |threads: usize| -> Vec<String> {
            let backend = fresh_backend(Parallelism::new(threads));
            let mut out = Vec::new();
            for (graph, budget) in [
                (QueryGraph::Chain, None),
                (QueryGraph::Star, Some(30_000)),
                (QueryGraph::Cycle, Some(60_000_000)),
            ] {
                for seed in 0..3 {
                    let (plan, report) = backend.race(&query(graph, 4, seed), budget);
                    out.push(format!("{plan:?}"));
                    out.push(format!("{report:?}"));
                    out.push(format!("{:?}", report_counters(&report)));
                }
            }
            out
        };
        assert_eq!(race_all(1), race_all(8));
    }

    #[test]
    fn cancellation_fires_exactly_when_the_trajectory_plateaus() {
        let backend = fresh_backend(Parallelism::sequential());
        for seed in 0..4 {
            let (_, report) = backend.race(&query(QueryGraph::Chain, 4, seed), None);
            for r in report.racers.iter().filter(|r| r.entered) {
                assert_eq!(r.trajectory.len(), r.chunks_run, "{}", r.name);
                if r.cancelled {
                    // Cancelled: the recorded trajectory satisfies the
                    // predicate, and chunks remained unspent.
                    assert!(r.chunks_run < r.chunks_budgeted, "{}", r.name);
                    assert!(
                        plateaued(&r.trajectory, backend.epsilon, backend.plateau_window),
                        "{} cancelled without a plateau",
                        r.name
                    );
                } else {
                    assert_eq!(r.chunks_run, r.chunks_budgeted, "{}", r.name);
                }
                // Never cancelled early: no proper prefix with chunks
                // still remaining may satisfy the predicate.
                let checked = if r.cancelled { r.chunks_run - 1 } else { r.chunks_run };
                for len in 1..checked.min(r.chunks_budgeted.saturating_sub(1) + 1) {
                    if len < r.chunks_run && len < r.chunks_budgeted {
                        assert!(
                            !plateaued(
                                &r.trajectory[..len],
                                backend.epsilon,
                                backend.plateau_window
                            ),
                            "{} should have cancelled after chunk {len}",
                            r.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_budgets_skip_every_racer_without_touching_the_cache() {
        let backend = fresh_backend(Parallelism::sequential());
        let q = query(QueryGraph::Chain, 4, 1);
        let (plan, report) = backend.race(&q, Some(2));
        assert!(report.racers.iter().all(|r| !r.entered));
        assert_eq!(report.winner, "anytime");
        assert_eq!(report.portfolio(), "anytime");
        assert_eq!(plan.cache, None);
        assert!(backend.cache.is_empty(), "a racer-less race must not formulate");
        let race = plan.race.expect("race metadata");
        assert_eq!(race.winner, "anytime");
        assert_eq!(race.cancelled, "");
    }

    #[test]
    fn oversized_instances_fail_the_variable_screen() {
        let backend = fresh_backend(Parallelism::sequential());
        // t = 42 bounds to ~8800 QUBO variables, far past the screen;
        // even a generous budget must not formulate it.
        let q = query(QueryGraph::Chain, 42, 1);
        let (plan, report) = backend.race(&q, Some(60_000_000));
        assert!(report.racers.iter().all(|r| !r.entered && r.chunks_budgeted == 0));
        assert_eq!(report.winner, "anytime");
        assert_eq!(report.anytime.2, "greedy", "t = 42 is past the DP cap");
        assert!(backend.cache.is_empty());
        assert_eq!(plan.order.len(), 42);
    }

    #[test]
    fn the_winner_never_costs_more_than_the_anytime_plan() {
        let backend = fresh_backend(Parallelism::sequential());
        for graph in [QueryGraph::Chain, QueryGraph::Star, QueryGraph::Cycle] {
            for seed in 0..3 {
                let q = query(graph, 5, seed);
                let (plan, report) = backend.race(&q, None);
                assert!(
                    plan.cost <= report.anytime.1,
                    "{graph:?}/{seed}: winner {} at {} beat by anytime at {}",
                    report.winner,
                    plan.cost,
                    report.anytime.1
                );
                // And the plan is a valid permutation.
                let mut sorted = plan.order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..5).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn report_counters_cover_the_sched_taxonomy() {
        let backend = fresh_backend(Parallelism::sequential());
        let (_, report) = backend.race(&query(QueryGraph::Chain, 4, 1), None);
        let counters = report_counters(&report);
        assert_eq!(counters.get("sched.races"), Some(&1));
        assert_eq!(counters.get("sched.anytime.plans"), Some(&1));
        assert_eq!(counters.get(&format!("sched.win.{}", report.winner)), Some(&1));
        let entered = report.racers.iter().filter(|r| r.entered).count() as u64;
        assert_eq!(counters.get("sched.racers.entered"), Some(&entered));
        for name in counters.keys() {
            assert!(qjo_obs::manifest::is_sched(name), "{name} outside the sched section");
        }
    }

    #[test]
    fn calibration_reshapes_chunk_budgets_deterministically() {
        let backend = fresh_backend(Parallelism::sequential());
        let q = query(QueryGraph::Chain, 4, 1);
        let (_, baseline) = backend.race(&q, Some(1_000));
        // Install a snapshot claiming sa requests are observed at 16 µs:
        // one chunk costs 1 µs and the 333 µs share covers the ceiling.
        let mut model = qjo_obs::online::WorkModel::new(8, 0.2);
        for _ in 0..3 {
            model.observe("sa:hit", 16);
        }
        *backend.calibration.lock().expect("lock") = Some(model.snapshot());
        let (_, calibrated) = backend.race(&q, Some(1_000));
        let chunks = |r: &RaceReport, name: &str| {
            r.racers.iter().find(|x| x.name == name).expect("roster").chunks_budgeted
        };
        assert!(chunks(&calibrated, "sa") >= chunks(&baseline, "sa"));
        assert_eq!(chunks(&calibrated, "sa"), 16, "calibrated sa affords its ceiling");
        // Uncalibrated racers keep their static budgets.
        assert_eq!(chunks(&calibrated, "tabu"), chunks(&baseline, "tabu"));
        assert_eq!(chunks(&calibrated, "sqa"), chunks(&baseline, "sqa"));
    }

    #[test]
    fn divergent_optimiser_trajectories_plateau_under_injected_faults() {
        // The qaoa.step fault site makes every objective evaluation
        // diverge; the optimisers clamp NaN to +∞ in their monotone
        // histories, and a history with no finite improvement must read
        // as plateaued — the mechanism by which the portfolio would
        // cancel a faulting QAOA-style racer instead of spinning.
        use qjo_gatesim::optim::NelderMead;
        use qjo_gatesim::{QaoaParams, QaoaSimulator};
        let q = query(QueryGraph::Chain, 3, 1);
        let formulation = JoEncoder::default().encode(&q);
        let sim = QaoaSimulator::new(&formulation.qubo);
        let plan = qjo_resil::FaultPlan::new(11).with_rate("qaoa.step", 1.0);
        let _guard = qjo_resil::fault::scoped(plan);
        let nm = NelderMead { max_iterations: 12, ..NelderMead::default() };
        let result =
            nm.minimize(|flat| sim.expectation(&QaoaParams::from_flat(1, flat)), &[0.1, 0.1]);
        assert!(
            result.history.iter().all(|e| !e.is_finite()),
            "rate-1.0 injection must poison every evaluation"
        );
        let points: Vec<(u64, f64)> =
            result.history.iter().enumerate().map(|(i, &e)| (i as u64, e)).collect();
        assert!(points.len() > DEFAULT_PLATEAU_WINDOW);
        assert!(plateaued(&points, DEFAULT_EPSILON, DEFAULT_PLATEAU_WINDOW));
    }
}
