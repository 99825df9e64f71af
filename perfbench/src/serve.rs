//! The serving workloads, `serve-hot` and `anneal-cold`.
//!
//! Both are closed loops with one client: each request is sent through
//! `Service::handle` when the previous reply has arrived. Every pass
//! serves the same requests in the same order through freshly built
//! services, so the cache sees the same history in every pass and plans
//! repeat exactly; only wall-clock figures differ between passes.
//!
//! The traced pass replays the same requests through the layer entry
//! points in the order `Service::handle` calls them, on backends built
//! with the configuration `Service::smoke` uses, and checks that every
//! replayed reply equals the served one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qjo_anneal::AnnealerSampler;
use qjo_core::classical::{dp_optimal, greedy_min_cost};
use qjo_core::{
    decode_assignment, BenchmarkGenerator, BenchmarkSchema, JoEncoder, JoinOrder, Query,
    QueryGenerator, QueryGraph,
};
use qjo_exec::{stream_seed, Parallelism};
use qjo_obs::Counter;
use qjo_qubo::ising::spins_to_bits;
use qjo_qubo::solve::{SimulatedAnnealing, TabuSearch};
use qjo_sched::{report_counters, PortfolioBackend};
use qjo_serve::fingerprint::relabel;
use qjo_serve::{
    AnnealerBackend, CacheCounters, CacheEntry, CacheStatus, DpBackend, FingerprintConfig,
    FormulationCache, GreedyBackend, JoinOrderOptimizer, QaoaBackend, Request, Response, SaBackend,
    Service, SqaBackend, TabuBackend,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::measure::{
    add_deltas, counter_values, repeat_for, timed_setup, EndToEnd, Env, Layers, Report,
    SetupSampler, SETUP_EVERY_S,
};
use crate::trace::Tracer;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve-hot`: a dozen classes per session, far below the 64-entry
    /// formulation cache, so nearly every lookup hits and nothing embeds.
    /// Most requests take microseconds, so the request loop sets the
    /// median; the sa, tabu, sqa and auto kernels set the tail and the
    /// throughput. It is the bypass workload for embedder changes.
    Hot,
    /// `anneal-cold`: annealer traffic (some sqa for contrast) over more
    /// classes than the cache holds. First visits, and revisits after an
    /// eviction, pay a formulation plus a minor-embedding (0.1-1 s at
    /// t = 3 and about a second at t = 4, against a few ms warm), so the
    /// embedder and the cache policy dominate; the sqa tail streams
    /// through the cache, making it insert- and evict-heavy. Classes with
    /// t >= 5 are left out: they cannot embed into `pegasus_like(8)`, and
    /// one such request costs minutes (see `NOTES.md`).
    Cold,
}

/// Set-up repetitions before the first pass; more are interleaved with
/// the passes, and `setup_s` is the median of all of them.
const SETUP_REPS: usize = 7;
/// Reseeded solve attempts per request, as in the service.
const SOLVE_ATTEMPTS: usize = 3;
/// Request deadlines: none, generous (admits a cold embed) and tight
/// (admits the annealer only once its embedding is cached).
const DEADLINES: [Option<u64>; 3] = [None, Some(60_000), Some(2)];
/// Backends that plan through the formulation cache's solve-and-decode
/// loop (`auto` races its own solvers instead).
const FORMULATING: [&str; 5] = ["sa", "tabu", "sqa", "annealer", "qaoa"];

/// `serve-hot` sessions: each a fresh service over its own pool of
/// classes, so the figures average over 96 classes while every session
/// stays hot. A session sends 12 x 7 x 3 = 252 requests.
const HOT_SESSIONS: usize = 8;
/// Classes per `serve-hot` session.
const HOT_CLASSES: usize = 12;
/// Backends of `serve-hot`.
const HOT_BACKENDS: [&str; 7] = ["dp", "greedy", "sa", "tabu", "sqa", "auto", "qaoa"];

/// `anneal-cold` head: annealer classes revisited every ~55 requests,
/// so they stay resident and embed once per pass. The first
/// `COLD_T4_CLASSES` have four relations (an embed costs about a second).
const COLD_HEAD: usize = 36;
/// Head classes with four relations.
const COLD_T4_CLASSES: usize = 2;
/// `anneal-cold` roving set: annealer classes revisited every ~490
/// requests, long after eviction, so each revisit embeds again.
const COLD_ROVING: usize = 13;
/// `anneal-cold` tail: sqa classes streamed round-robin. Between two
/// visits of one tail class more than the cache's 64 classes are touched,
/// so every tail visit inserts a formulation and evicts another.
const COLD_TAIL: usize = 60;
/// Requests per `anneal-cold` pass.
const COLD_REQUESTS: usize = 1000;
/// One block of the `anneal-cold` request stream: `h`ead, `t`ail and
/// `r`oving visits (25, 12 and 1 of 38). With about a third of the
/// requests on the fast sqa tail, the median request is a warm annealer
/// request that decodes; with a fifth it sat where the warm requests
/// that decode give way to the ones that retry three times, and moved
/// 30% between runs.
const COLD_BLOCK: &[u8; 38] = b"hhthhthhthhthhthhthhthhthhthhthhthhthr";

#[derive(Debug, Clone, Copy)]
enum Shape {
    Chain,
    Star,
    Cycle,
    Snowflake,
    FkChain,
}

const SHAPES: [Shape; 5] =
    [Shape::Chain, Shape::Star, Shape::Cycle, Shape::Snowflake, Shape::FkChain];

fn class_query(shape: Shape, t: usize, seed: u64) -> Query {
    let graph = |g| QueryGenerator::paper_defaults(g, t).generate(seed);
    let schema = |s| BenchmarkGenerator::paper_defaults(s).generate(seed);
    match shape {
        Shape::Chain => graph(QueryGraph::Chain),
        Shape::Star => graph(QueryGraph::Star),
        Shape::Cycle => graph(QueryGraph::Cycle),
        // Two-deep dimension chains where t - 1 is even and t >= 5.
        Shape::Snowflake if t >= 5 && (t - 1).is_multiple_of(2) => {
            schema(BenchmarkSchema::Snowflake { dims: (t - 1) / 2, depth: 2 })
        }
        Shape::Snowflake => schema(BenchmarkSchema::Snowflake { dims: t - 1, depth: 1 }),
        Shape::FkChain => schema(BenchmarkSchema::FkChain { len: t }),
    }
}

/// One query per `spec` entry, each in a fingerprint class of its own:
/// fresh seeds are drawn until a query lands in a class not yet taken.
fn distinct_pool(spec: &[(Shape, usize)], seed: u64) -> Vec<Query> {
    const MAX_DRAWS: u64 = 10_000;
    let cfg = FingerprintConfig::default();
    let mut seen = std::collections::BTreeSet::new();
    let mut draw = 0u64;
    spec.iter()
        .map(|&(shape, t)| loop {
            assert!(draw < MAX_DRAWS, "too few distinct {shape:?} classes with {t} relations");
            let q = class_query(shape, t, stream_seed(seed, draw));
            draw += 1;
            if seen.insert(qjo_serve::canonicalize(&q, &cfg).fingerprint) {
                break q;
            }
        })
        .collect()
}

/// A relabelled isomorph of `q` with sub-bucket cardinality jitter: a
/// byte-distinct query that must still hit its class.
fn isomorph(q: &Query, rng: &mut StdRng) -> Query {
    let mut perm: Vec<usize> = (0..q.num_relations()).collect();
    perm.shuffle(rng);
    let iso = relabel(q, &perm);
    if !iso.is_integer_log() {
        return iso;
    }
    // Integer logs sit at bucket centres, so +-0.3 stays in the bucket.
    let cards = iso
        .log_cards()
        .iter()
        .map(|&c| c + (rng.random_range(0..7u32) as f64 - 3.0) * 0.1)
        .collect();
    Query::new(cards, iso.predicates().to_vec())
}

/// One request and the exact optimum its reply is checked against.
struct Input {
    req: Request,
    dp_cost: f64,
}

fn input(id: String, backend: &str, deadline_ms: Option<u64>, query: Query) -> Input {
    let (_, dp_cost) = dp_optimal(&query);
    Input { req: Request { id, backend: backend.into(), deadline_ms, query }, dp_cost }
}

/// Each session is served by its own fresh service.
fn generate(kind: Kind, seed: u64) -> Vec<Vec<Input>> {
    match kind {
        Kind::Hot => (0..HOT_SESSIONS)
            .map(|s| {
                let spec: Vec<(Shape, usize)> =
                    (0..HOT_CLASSES).map(|i| (SHAPES[i % SHAPES.len()], 3 + i % 6)).collect();
                let pool = distinct_pool(&spec, stream_seed(POOL_SEED, s as u64));
                let mut rng = StdRng::seed_from_u64(stream_seed(seed, s as u64));
                // Every class meets every backend under every deadline
                // once per session, in an order the seed shuffles.
                let mut visits: Vec<(&Query, &str, Option<u64>)> = pool
                    .iter()
                    .flat_map(|q| HOT_BACKENDS.iter().map(move |&b| (q, b)))
                    .flat_map(|(q, b)| DEADLINES.iter().map(move |&d| (q, b, d)))
                    .collect();
                visits.shuffle(&mut rng);
                visits
                    .into_iter()
                    .enumerate()
                    .map(|(r, (class, backend, deadline))| {
                        let query = if rng.random_range(0..2u32) == 1 {
                            isomorph(class, &mut rng)
                        } else {
                            class.clone()
                        };
                        input(format!("s{s}r{r}"), backend, deadline, query)
                    })
                    .collect()
            })
            .collect(),
        Kind::Cold => {
            // The schema shapes add no classes at t = 3, where a snowflake
            // and an FK chain are both three-relation chains.
            let spec: Vec<(Shape, usize)> = (0..COLD_HEAD + COLD_ROVING + COLD_TAIL)
                .map(|i| (SHAPES[i % 3], if i < COLD_T4_CLASSES { 4 } else { 3 }))
                .collect();
            let pool = distinct_pool(&spec, POOL_SEED);
            let (head, rest) = pool.split_at(COLD_HEAD);
            let (roving, tail) = rest.split_at(COLD_ROVING);
            let tiers = [(head, "annealer"), (roving, "annealer"), (tail, "sqa")];
            let mut visits = [0usize; 3];
            // (tier, class, inserts): the annealer visits that insert a
            // formulation are a head class's first visit and every roving
            // visit. The cache keeps the formulation of the query that
            // inserted it, and whether a warm annealer request decodes on
            // its first, second or third attempt, or falls back, depends
            // on that formulation; so these visits send the class itself
            // and never the tight deadline (which would divert them before
            // they insert). Otherwise the seed would move the mix of one,
            // two and three attempts, and the median with it by 25%.
            let plan: Vec<(usize, usize, bool)> = (0..COLD_REQUESTS)
                .map(|r| {
                    let tier = match COLD_BLOCK[r % COLD_BLOCK.len()] {
                        b'h' => 0,
                        b'r' => 1,
                        _ => 2,
                    };
                    let v = visits[tier];
                    visits[tier] += 1;
                    let inserts = tier == 1 || (tier == 0 && v < head.len());
                    (tier, v % tiers[tier].0.len(), inserts)
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, u64::MAX));
            // Each deadline on a third of the other requests, and none or
            // the generous one on half of the inserting visits, assigned
            // by the seed.
            let mut deal = |inserts: bool, choices: &[Option<u64>]| {
                let n = plan.iter().filter(|p| p.2 == inserts).count();
                let mut d: Vec<Option<u64>> = (0..n).map(|i| choices[i % choices.len()]).collect();
                d.shuffle(&mut rng);
                d.into_iter()
            };
            let mut inserting = deal(true, &DEADLINES[..2]);
            let mut other = deal(false, &DEADLINES);
            let requests = plan
                .into_iter()
                .enumerate()
                .map(|(r, (tier, c, inserts))| {
                    let (classes, backend) = tiers[tier];
                    let class = &classes[c];
                    let (deadline, query) = if inserts {
                        (inserting.next(), class.clone())
                    } else if rng.random_range(0..2u32) == 1 {
                        (other.next(), isomorph(class, &mut rng))
                    } else {
                        (other.next(), class.clone())
                    };
                    input(format!("r{r}"), backend, deadline.expect("dealt"), query)
                })
                .collect();
            vec![requests]
        }
    }
}

/// Seed of the class pools. The pools are part of each workload's
/// definition, like a benchmark's query set: which classes a seed drew
/// moved plan quality and the valid-decode share by 10-25% from seed to
/// seed (each class's annealer either decodes or falls back), which
/// would drown any change a later revision makes. The workload seed
/// draws the request stream over the pools.
const POOL_SEED: u64 = 0x9e37_79b9;

/// Seed of every service the benchmark builds. A service's seed is part
/// of its configuration, not of its input: the workload seed only draws
/// the requests the service is sent.
const SERVICE_SEED: u64 = 7;

/// The service under test: the smoke roster plus the `auto` portfolio.
fn build_service(seed: u64, par: Parallelism) -> Service {
    let mut svc = Service::smoke(seed, par);
    qjo_sched::install_auto(&mut svc, seed, par);
    svc
}

/// The output check: a permutation of the query's relations whose
/// reported cost is its recomputed `C_out` and no better than the optimum.
fn check_reply(input: &Input, resp: &Response) -> Result<(), String> {
    const REL_TOL: f64 = 1e-9;
    if let Some(e) = &resp.error {
        return Err(format!("error reply: {e}"));
    }
    let query = &input.req.query;
    let jo = JoinOrder::new(resp.order.clone(), query.num_relations())
        .ok_or_else(|| format!("order {:?} is not a permutation", resp.order))?;
    let cost = resp.cost.ok_or("reply carries no cost")?;
    let recomputed = jo.cost(query);
    if (cost - recomputed).abs() > REL_TOL * recomputed.abs().max(1.0) {
        return Err(format!("reported cost {cost} but the order costs {recomputed}"));
    }
    if cost < input.dp_cost * (1.0 - REL_TOL) {
        return Err(format!("cost {cost} beats the exact optimum {}", input.dp_cost));
    }
    Ok(())
}

/// Serves every session once, repeating the set-up between requests
/// when `setup` says one is due; returns the replies and the seconds
/// spent inside `Service::handle`.
fn untraced_pass(
    sessions: &[Vec<Input>],
    par: Parallelism,
    e: &mut EndToEnd,
    mut setup: Option<&mut SetupSampler>,
) -> (Vec<Response>, f64) {
    let before = counter_values();
    let mut replies = Vec::new();
    let mut measured = 0.0;
    let mut solves = 0u64;
    for session in sessions {
        let svc = build_service(SERVICE_SEED, par);
        for input in session {
            let t0 = Instant::now();
            let resp = svc.handle(&input.req);
            let dt = t0.elapsed().as_secs_f64();
            measured += dt;
            e.latency_s.push(dt);
            let verdict = check_reply(input, &resp);
            e.replies += 1;
            e.fallbacks += u64::from(resp.fallback);
            let named = !resp.fallback && resp.error.is_none();
            e.named += u64::from(named);
            if let Some(ms) = input.req.deadline_ms {
                e.deadlines += 1;
                e.deadlines_met += u64::from(named && dt <= ms as f64 / 1e3);
            }
            if verdict.is_ok() {
                e.cost_ratios.push(resp.cost.expect("checked") / input.dp_cost);
            }
            e.check(&input.req.id, verdict);
            // A formulating backend that reached the cache ran the
            // solve-and-decode loop once, plus once per retry.
            solves += u64::from(
                FORMULATING.contains(&input.req.backend.as_str()) && resp.cache.is_some(),
            );
            replies.push(resp);
            if let Some(s) = setup.as_mut() {
                s.tick(&mut e.setup_s);
            }
        }
    }
    let mut delta = Default::default();
    add_deltas(&mut delta, &before, &counter_values());
    let retries = delta["resil.serve.solve.retries"];
    let exhausted = delta["resil.serve.solve.exhausted"];
    e.shots += solves + retries;
    e.valid_shots += solves - exhausted;
    e.pass_s.push(measured);
    (replies, measured)
}

/// Backends configured exactly as `Service::smoke` and
/// `qjo_sched::install_auto` configure them, over one fresh cache.
struct Mirror {
    cache: Arc<FormulationCache>,
    dp: DpBackend,
    sa: SaBackend,
    tabu: TabuBackend,
    sqa: SqaBackend,
    annealer: AnnealerBackend,
    qaoa: QaoaBackend,
    auto: PortfolioBackend,
}

impl Mirror {
    fn new(seed: u64, parallelism: Parallelism) -> Mirror {
        let cache =
            Arc::new(FormulationCache::new(JoEncoder::default(), FingerprintConfig::default(), 64));
        let mut sampler = AnnealerSampler::new(qjo_anneal::hardware::pegasus_like(8));
        sampler.num_reads = 4;
        sampler.num_gauges = 1;
        sampler.annealing_time_us = 4.0;
        sampler.parallelism = parallelism;
        sampler.sqa.seed = seed;
        sampler.sqa.parallelism = parallelism;
        Mirror {
            dp: DpBackend::default(),
            sa: SaBackend {
                cache: cache.clone(),
                solver: SimulatedAnnealing {
                    restarts: 4,
                    sweeps: 100,
                    seed,
                    parallelism,
                    ..SimulatedAnnealing::default()
                },
            },
            tabu: TabuBackend {
                cache: cache.clone(),
                solver: TabuSearch {
                    restarts: 2,
                    iterations: 400,
                    seed,
                    parallelism,
                    ..TabuSearch::default()
                },
            },
            sqa: SqaBackend {
                cache: cache.clone(),
                config: qjo_anneal::SqaConfig {
                    seed,
                    parallelism,
                    ..qjo_anneal::SqaConfig::default()
                },
                annealing_time_us: 4.0,
                num_reads: 4,
            },
            annealer: AnnealerBackend { cache: cache.clone(), sampler },
            qaoa: QaoaBackend {
                cache: cache.clone(),
                p: 1,
                shots: 128,
                max_iterations: 20,
                seed,
                max_qubits: 16,
            },
            auto: PortfolioBackend::new(cache.clone(), seed, parallelism),
            cache,
        }
    }

    fn backend(&self, name: &str) -> &dyn JoinOrderOptimizer {
        match name {
            "dp" => &self.dp,
            "greedy" => &GreedyBackend,
            "sa" => &self.sa,
            "tabu" => &self.tabu,
            "sqa" => &self.sqa,
            "annealer" => &self.annealer,
            "qaoa" => &self.qaoa,
            "auto" => &self.auto,
            other => panic!("workloads only name registered backends, not {other}"),
        }
    }
}

/// Program counters the kernel spans record as their work.
struct Kernels {
    sa_sweeps: Counter,
    tabu_iterations: Counter,
    sqa_sweeps: Counter,
    embed_tries: Counter,
}

impl Kernels {
    fn new() -> Kernels {
        Kernels {
            sa_sweeps: qjo_obs::counter("sa.sweeps"),
            tabu_iterations: qjo_obs::counter("tabu.iterations"),
            sqa_sweeps: qjo_obs::counter("sqa.sweeps"),
            embed_tries: qjo_obs::counter("embed.tries"),
        }
    }
}

/// Nanoseconds the program's own `serve.formulate` spans have recorded:
/// formulation runs inside `FormulationCache::lookup`, where no entry
/// point can be wrapped, so its time comes from the program's timer.
fn formulate_ns() -> u64 {
    qjo_obs::global()
        .snapshot()
        .histograms
        .iter()
        .filter(|(path, _)| path.ends_with("serve.formulate"))
        .map(|(_, h)| h.sum_ns)
        .sum()
}

/// What a replayed request produced, in `Response` terms.
struct Planned {
    order: Vec<usize>,
    cost: f64,
    cache: Option<&'static str>,
    fallback: bool,
    deadline_miss: bool,
}

/// One solve attempt of a formulating backend; `None` when the solver
/// produced no assignment.
fn solve_once(
    m: &Mirror,
    k: &Kernels,
    tr: &mut Tracer,
    l: &mut Layers,
    backend: &str,
    attempt: usize,
    entry: &CacheEntry,
) -> Option<Vec<bool>> {
    let qubo = &entry.formulation.qubo;
    let attempt = attempt as u64;
    match backend {
        "sa" => {
            let mut solver = m.sa.solver.clone();
            solver.seed = stream_seed(m.sa.solver.seed, attempt);
            tr.counted("qubo.sa", &k.sa_sweeps, |_| solver.solve(qubo).ok().map(|s| s.assignment))
        }
        "tabu" => {
            let mut solver = m.tabu.solver.clone();
            solver.seed = stream_seed(m.tabu.solver.seed, attempt);
            tr.counted("qubo.tabu", &k.tabu_iterations, |_| {
                solver.solve(qubo).ok().map(|s| s.assignment)
            })
        }
        "sqa" => {
            let mut config = m.sqa.config;
            config.seed = stream_seed(m.sqa.config.seed, attempt);
            tr.counted("anneal.sqa", &k.sqa_sweeps, |_| {
                let ising = qubo.to_ising();
                let reads = qjo_anneal::sqa::sample(
                    &ising,
                    &config,
                    m.sqa.annealing_time_us,
                    m.sqa.num_reads,
                );
                let energy =
                    |bits: &[bool]| qubo.energy(bits).expect("formulation-sized assignment");
                reads
                    .iter()
                    .map(|spins| spins_to_bits(spins))
                    .min_by(|a, b| energy(a).partial_cmp(&energy(b)).expect("finite energies"))
            })
        }
        "annealer" => {
            let mut sampler = m.annealer.sampler.clone();
            sampler.sqa.seed = stream_seed(m.annealer.sampler.sqa.seed, attempt);
            let embedded = entry.embedding_with_status(|f| {
                let found = tr.counted("anneal.embed", &k.embed_tries, |_| sampler.embed(&f.qubo));
                if let Ok(e) = &found {
                    l.embeds_found += 1;
                    l.embed_physical += e.num_physical_qubits() as u64;
                    l.embed_logical += f.qubo.num_vars() as u64;
                }
                found
            });
            let (embedding, _) = embedded.ok()?;
            let outcome = tr.counted("anneal.sample", &k.sqa_sweeps, |_| {
                sampler.sample_qubo_with_embedding(qubo, embedding)
            });
            l.chain_breaks.push(outcome.chain_break_fraction);
            outcome.samples.best().map(|s| s.assignment.clone())
        }
        other => unreachable!("{other} does not solve through the cache"),
    }
}

/// The formulating backends' path: lookup, then solve and decode with
/// reseeded retries, then the greedy plan if every attempt failed.
fn formulated(
    m: &Mirror,
    k: &Kernels,
    tr: &mut Tracer,
    l: &mut Layers,
    backend: &str,
    q: &Query,
    miss_span: &mut Option<usize>,
) -> Planned {
    let ((canon, entry, status), lookup) = tr.span_at("serve.cache.lookup", |_| m.cache.lookup(q));
    if status == CacheStatus::Miss {
        *miss_span = Some(lookup);
        l.qubo_vars.push(entry.formulation.qubo.num_vars() as f64);
    }
    let decoded = qjo_resil::with_retries("serve.solve", SOLVE_ATTEMPTS, |attempt| {
        l.solve_attempts += 1;
        let bits = solve_once(m, k, tr, l, backend, attempt, &entry).ok_or(())?;
        let jo = tr
            .span("core.decode", |_| {
                decode_assignment(&bits, &entry.formulation.registry, &entry.canonical_query)
            })
            .ok_or(())?;
        l.valid_decodes += 1;
        Ok(jo)
    });
    let cache = Some(status.name());
    match decoded {
        Ok(jo) => {
            let order = canon.order_to_original(&jo.order);
            let cost = JoinOrder::new(order.clone(), q.num_relations())
                .expect("decoded orders are permutations")
                .cost(q);
            Planned { order, cost, cache, fallback: false, deadline_miss: false }
        }
        Err(()) => {
            let (jo, cost) = tr.span("core.greedy", |_| greedy_min_cost(q));
            Planned { order: jo.order, cost, cache, fallback: true, deadline_miss: false }
        }
    }
}

/// Replays one request through the layer entry points in the order
/// `Service::handle` calls them.
fn replay(
    m: &Mirror,
    k: &Kernels,
    tr: &mut Tracer,
    l: &mut Layers,
    req: &Request,
) -> (Planned, Option<usize>) {
    let q = &req.query;
    let mut miss_span = None;
    let greedy = |tr: &mut Tracer, deadline_miss: bool| {
        let (jo, cost) = tr.span("core.greedy", |_| greedy_min_cost(q));
        Planned { order: jo.order, cost, cache: None, fallback: true, deadline_miss }
    };
    let planned = tr.span("serve.request", |tr| {
        tr.span("serve.canonicalize", |_| m.cache.canonicalize(q));
        let backend = m.backend(&req.backend);
        let check = tr.span("serve.pre_check", |_| backend.pre_check(q));
        if !check.admissible {
            return greedy(tr, false);
        }
        let mut budget = None;
        if let Some(ms) = req.deadline_ms {
            let budget_us = ms.saturating_mul(1000);
            if budget_us == 0 || check.cost_estimate_us > budget_us {
                return greedy(tr, true);
            }
            budget = Some(budget_us);
        }
        let plain = |(jo, cost): (JoinOrder, f64)| Planned {
            order: jo.order,
            cost,
            cache: None,
            fallback: false,
            deadline_miss: false,
        };
        match req.backend.as_str() {
            "dp" => plain(tr.span("core.dp", |_| dp_optimal(q))),
            "greedy" => plain(tr.span("core.greedy", |_| greedy_min_cost(q))),
            "auto" => {
                let ((plan, report), race) = tr.span_at("sched.race", |_| {
                    let (plan, report) = m.auto.race(q, budget);
                    for (name, n) in report_counters(&report) {
                        qjo_obs::counter(&name).add(n);
                    }
                    (plan, report)
                });
                l.racers_entered += report.racers.iter().filter(|r| r.entered).count() as u64;
                l.racers_cancelled += report.racers.iter().filter(|r| r.cancelled).count() as u64;
                if report.cache == Some(CacheStatus::Miss) {
                    miss_span = Some(race);
                }
                Planned {
                    order: plan.order,
                    cost: plan.cost,
                    cache: plan.cache.map(CacheStatus::name),
                    fallback: plan.fallback,
                    deadline_miss: false,
                }
            }
            name => formulated(m, k, tr, l, name, q, &mut miss_span),
        }
    });
    (planned, miss_span)
}

/// Replays every session once, comparing each reply with `served`.
fn traced_pass(
    sessions: &[Vec<Input>],
    par: Parallelism,
    l: &mut Layers,
    e: &mut EndToEnd,
    served: &[Response],
) {
    let k = Kernels::new();
    let mut tr = std::mem::take(&mut l.tracer);
    let before = counter_values();
    let mut last_formulate = formulate_ns();
    let mut served = served.iter();
    for session in sessions {
        let m = Mirror::new(SERVICE_SEED, par);
        for input in session {
            let t0 = Instant::now();
            let (planned, miss_span) = replay(&m, &k, &mut tr, l, &input.req);
            l.traced_s += t0.elapsed().as_secs_f64();
            l.ops += 1;
            if let Some(span) = miss_span {
                let now = formulate_ns();
                tr.attach(span, "core.encode", Duration::from_nanos(now - last_formulate));
                last_formulate = now;
                if input.req.backend == "auto" {
                    let (_, entry) = m.cache.peek(&input.req.query);
                    let entry = entry.expect("a race that missed inserted its class");
                    l.qubo_vars.push(entry.formulation.qubo.num_vars() as f64);
                }
            }
            let resp = Response {
                id: input.req.id.clone(),
                backend: input.req.backend.clone(),
                order: planned.order,
                cost: Some(planned.cost),
                cache: planned.cache,
                fallback: planned.fallback,
                deadline_miss: planned.deadline_miss,
                error: None,
            };
            e.check(&input.req.id, check_reply(input, &resp));
            if served.next() != Some(&resp) {
                l.mismatches += 1;
            }
        }
        let c = m.cache.stats();
        l.cache = CacheCounters {
            hits: l.cache.hits + c.hits,
            misses: l.cache.misses + c.misses,
            evictions: l.cache.evictions + c.evictions,
            embed_hits: l.cache.embed_hits + c.embed_hits,
            embed_misses: l.cache.embed_misses + c.embed_misses,
        };
    }
    add_deltas(&mut l.counters, &before, &counter_values());
    l.passes += 1;
    l.tracer = tr;
}

/// Runs a serving workload for `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, env: &Env) -> Report {
    let par = env.parallelism();
    let mut e = EndToEnd::default();
    let setup = || {
        let sessions = generate(kind, seed);
        for _ in &sessions {
            drop(build_service(SERVICE_SEED, par));
        }
        sessions
    };
    let (sessions, times) = timed_setup(SETUP_REPS, setup);
    e.setup_s = times;
    if !traced {
        let mut sampler = SetupSampler::new(SETUP_EVERY_S, || drop(setup()));
        repeat_for(seconds, || {
            untraced_pass(&sessions, par, &mut e, Some(&mut sampler));
        });
        return Report::end_to_end(&e, "requests");
    }
    let mut l = Layers { serving: true, ..Layers::default() };
    repeat_for(seconds, || {
        let (served, measured) = untraced_pass(&sessions, par, &mut e, None);
        l.untraced_s += measured;
        l.untraced_passes += 1;
        traced_pass(&sessions, par, &mut l, &mut e, &served);
    });
    Report::per_layer(&l, &e)
}
