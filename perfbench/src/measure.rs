//! What every workload measures, and the result line it prints.
//!
//! Workloads fill an [`EndToEnd`] tally from untraced passes and a
//! [`Layers`] tally from traced ones; the functions here turn both into
//! the metric sets named in `BENCHMARK.json`, so every workload reports
//! the same names with the same meaning.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use qjo_exec::Parallelism;

use crate::stats::{gmean, median, percentile, ratio, Percentile};
use crate::trace::{Layer, Tracer};

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("sweep_s", "s"),
    ("deadline_met_share", "share"),
    ("named_backend_share", "share"),
    ("plan_cost_ratio_gmean", "ratio"),
    ("depth_gmean", "layers"),
    ("valid_shot_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("serve.canonicalize_us", "us"),
    ("serve.pre_check_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.cache.hit_rate", "share"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.embed_hit_rate", "share"),
    ("core.encode_us", "us"),
    ("core.qubo_vars", "count"),
    ("core.decode_us", "us"),
    ("core.decode.valid_ratio", "share"),
    ("core.greedy_us", "us"),
    ("core.dp_us", "us"),
    ("qubo.sa_ms", "ms"),
    ("qubo.sa.sweeps", "count"),
    ("qubo.sa.sweeps_per_s", "1/s"),
    ("qubo.tabu_ms", "ms"),
    ("qubo.tabu.iterations", "count"),
    ("qubo.tabu.iterations_per_s", "1/s"),
    ("anneal.embed_ms", "ms"),
    ("anneal.embed_max_ms", "ms"),
    ("anneal.embed.calls", "count"),
    ("anneal.embed.success_ratio", "share"),
    ("anneal.embed.tries", "count"),
    ("anneal.embed.phys_per_logical", "ratio"),
    ("anneal.sample_ms", "ms"),
    ("anneal.sqa_ms", "ms"),
    ("anneal.sqa.sweeps", "count"),
    ("anneal.sqa.sweeps_per_s", "1/s"),
    ("anneal.chain_break_fraction", "share"),
    ("sched.race_ms", "ms"),
    ("sched.cancel_rate", "share"),
    ("resil.serve.solve.retries", "count"),
    ("resil.serve.solve.exhausted", "count"),
    ("resil.serve.solve.recovered", "count"),
    ("transpile.layout_ms", "ms"),
    ("transpile.route_ms", "ms"),
    ("transpile.decompose_ms", "ms"),
    ("transpile.optimize_ms", "ms"),
    ("transpile.swaps_per_circuit", "count"),
    ("gatesim.expectation_ms", "ms"),
    ("gatesim.noisy.shots_per_s", "1/s"),
    ("obs.coverage_share", "share"),
    ("obs.traced_minus_untraced_s", "s"),
    ("obs.trace_overhead_share", "share"),
    ("obs.replay_mismatches", "count"),
];

/// Threads the benchmark gives the program. One: on a two-core host,
/// fanning the annealer's four reads out to two threads made warm
/// requests slower (p50 2.2 against 1.8 ms) and their run-to-run spread
/// four times wider, and one thread keeps figures comparable across
/// hosts.
const THREADS: usize = 1;

/// Host facts recorded with every result.
pub struct Env {
    /// Cores the process may use.
    pub nproc: usize,
    /// Threads handed to the program's parallel sections.
    pub threads: usize,
    /// Commit of the checkout, when it is a git checkout.
    pub git_rev: String,
}

impl Env {
    /// Reads the host and checkout.
    pub fn detect() -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Env { nproc, threads: THREADS, git_rev: git_rev(Path::new(".git")) }
    }

    /// The parallelism handed to every backend and simulator.
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.threads)
    }
}

/// The commit `.git/HEAD` names, read without running git so a checkout
/// that is not a repository (or sits inside another one) reports
/// `unknown` rather than some other repository's commit.
fn git_rev(git: &Path) -> String {
    git_rev_from(|name| std::fs::read_to_string(git.join(name)).ok())
}

/// [`git_rev`] over a reader of files inside the git directory.
fn git_rev_from(read: impl Fn(&str) -> Option<String>) -> String {
    let Some(head) = read("HEAD").map(|s| s.trim().to_string()) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("peak memory needs /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// Runs `pass` until another pass as long as the longest so far would
/// overrun `seconds`; always at least once. Returns the passes run.
pub fn repeat_for(seconds: f64, mut pass: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut passes = 0;
    loop {
        let t0 = Instant::now();
        pass();
        passes += 1;
        longest = longest.max(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + longest > seconds {
            return passes;
        }
    }
}

/// Times `f` `reps` times, keeping the last result; returns it with the
/// seconds each repetition took.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("reps >= 1"), times)
}

/// Seconds between two set-up repetitions interleaved with the passes.
pub const SETUP_EVERY_S: f64 = 0.5;

/// Repeats a workload's set-up between operations, outside every timed
/// call: at most once every `every` seconds, and rarely enough to keep
/// set-up to a twentieth of the run, so the passes a run fits stay as
/// they were. The host runs faster or slower in spells of a second or
/// more, so set-ups repeated only at pass boundaries sampled a handful
/// of instants and their median moved by up to half from run to run;
/// spread over the whole run it follows the run's typical speed, as the
/// latency medians do.
pub struct SetupSampler<'a> {
    setup: Box<dyn FnMut() + 'a>,
    every: Duration,
    next: Instant,
}

impl<'a> SetupSampler<'a> {
    /// `setup` builds what the workload's set-up builds and drops it;
    /// the first repetition is due `every_s` seconds from now.
    pub fn new(every_s: f64, setup: impl FnMut() + 'a) -> SetupSampler<'a> {
        let every = Duration::from_secs_f64(every_s);
        SetupSampler { setup: Box::new(setup), every, next: Instant::now() + every }
    }

    /// Runs one set-up repetition into `setup_s` if one is due.
    pub fn tick(&mut self, setup_s: &mut Vec<f64>) {
        if Instant::now() < self.next {
            return;
        }
        let t0 = Instant::now();
        (self.setup)();
        let took = t0.elapsed();
        setup_s.push(took.as_secs_f64());
        self.next = Instant::now() + self.every.max(took * 19);
    }
}

/// Untraced tallies: everything the end-to-end metrics derive from.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds each set-up repetition took.
    pub setup_s: Vec<f64>,
    /// Seconds each operation (request or compile) took, call to return.
    pub latency_s: Vec<f64>,
    /// Seconds of measured calls in each pass.
    pub pass_s: Vec<f64>,
    /// Operations that carried a deadline, and those met by wall clock
    /// with the named backend's own answer.
    pub deadlines: u64,
    /// See [`deadlines`](Self::deadlines).
    pub deadlines_met: u64,
    /// Replies, and those the named backend produced itself.
    pub replies: u64,
    /// See [`replies`](Self::replies).
    pub named: u64,
    /// Replies produced by the greedy fallback.
    pub fallbacks: u64,
    /// Reply cost over the exact optimum, per reply with a plan.
    pub cost_ratios: Vec<f64>,
    /// Depth of every transpiled circuit.
    pub depths: Vec<f64>,
    /// Sampled assignments, and those decoding to a valid join order.
    pub shots: u64,
    /// See [`shots`](Self::shots).
    pub valid_shots: u64,
    /// Checked outputs, and those that failed their check.
    pub attempted: u64,
    /// See [`attempted`](Self::attempted).
    pub failed: u64,
    /// The first failed checks, for the log.
    pub failures: Vec<String>,
}

impl EndToEnd {
    /// Counts one checked output.
    pub fn check(&mut self, id: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("check failed: {id}: {why}"));
            }
        }
    }
}

/// Traced tallies: the spans plus what the spans cannot show.
#[derive(Debug, Default)]
pub struct Layers {
    /// Spans of every traced pass.
    pub tracer: Tracer,
    /// Traced passes run.
    pub passes: u64,
    /// Operations replayed across traced passes.
    pub ops: u64,
    /// Formulation-cache tallies across traced passes.
    pub cache: qjo_serve::CacheCounters,
    /// QUBO variables of each formulation built.
    pub qubo_vars: Vec<f64>,
    /// Solve attempts, and those that decoded to a valid join order.
    pub solve_attempts: u64,
    /// See [`solve_attempts`](Self::solve_attempts).
    pub valid_decodes: u64,
    /// Embeddings found, and their physical and logical qubits.
    pub embeds_found: u64,
    /// See [`embeds_found`](Self::embeds_found).
    pub embed_physical: u64,
    /// See [`embeds_found`](Self::embeds_found).
    pub embed_logical: u64,
    /// Chain-break fraction of every annealer sample batch.
    pub chain_breaks: Vec<f64>,
    /// Portfolio racers entered, and those that cancelled on a plateau.
    pub racers_entered: u64,
    /// See [`racers_entered`](Self::racers_entered).
    pub racers_cancelled: u64,
    /// Circuits compiled, and the SWAPs routing inserted into them.
    pub circuits: u64,
    /// See [`circuits`](Self::circuits).
    pub swaps: u64,
    /// Noisy shots sampled.
    pub noisy_shots: u64,
    /// Program counter deltas over the traced passes.
    pub counters: BTreeMap<String, u64>,
    /// Seconds of measured calls in untraced and traced passes of the
    /// same run (for coverage and overhead).
    pub untraced_s: f64,
    /// See [`untraced_s`](Self::untraced_s).
    pub traced_s: f64,
    /// Untraced passes run alongside the traced ones.
    pub untraced_passes: u64,
    /// Whether the operations are serve requests.
    pub serving: bool,
    /// Operations whose traced result differs from the untraced one.
    pub mismatches: u64,
}

/// Program counters snapshotted around traced passes.
pub const COUNTERS: [&str; 7] = [
    "embed.tries",
    "sa.sweeps",
    "sqa.sweeps",
    "tabu.iterations",
    "resil.serve.solve.retries",
    "resil.serve.solve.exhausted",
    "resil.serve.solve.recovered",
];

/// Current values of [`COUNTERS`].
pub fn counter_values() -> BTreeMap<String, u64> {
    COUNTERS.iter().map(|&name| (name.to_string(), qjo_obs::counter(name).get())).collect()
}

/// Adds `after - before` into `into`.
pub fn add_deltas(
    into: &mut BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    for (name, v) in after {
        *into.entry(name.clone()).or_default() += v - before.get(name).copied().unwrap_or(0);
    }
}

/// One finished workload run.
pub struct Report {
    /// Checked outputs.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

fn fmt_pct(name: &str, p: Option<Percentile>, n: usize) -> String {
    match p {
        Some(p) => format!(
            "{name} = {:.4} ms over {} samples ({} above)",
            p.value * 1e3,
            p.samples,
            p.above
        ),
        None => format!("{name} withheld: fewer than ten of {n} samples above it"),
    }
}

impl Report {
    /// The end-to-end report of untraced passes.
    pub fn end_to_end(e: &EndToEnd, units: &str) -> Report {
        let n = e.latency_s.len();
        let p50 = percentile(&e.latency_s, 50);
        let p99 = percentile(&e.latency_s, 99);
        let mut lines = vec![
            format!("{} {units} over {} passes", n, e.pass_s.len()),
            format!("measured seconds per pass: {:?}", e.pass_s),
            format!("set-up seconds per repetition: {:?}", e.setup_s),
            fmt_pct("latency_p50", p50, n),
            fmt_pct("latency_p99", p99, n),
            format!(
                "fallback_share = {:.6} ({} of {} replies)",
                ratio(e.fallbacks as f64, e.replies as f64, 0.0),
                e.fallbacks,
                e.replies
            ),
            format!(
                "error_share = {:.6} ({} of {} checked outputs failed)",
                ratio(e.failed as f64, e.attempted as f64, 0.0),
                e.failed,
                e.attempted
            ),
        ];
        if e.deadlines == 0 {
            lines.push("no deadlines: deadline_met_share is vacuously 1".into());
        }
        if e.depths.is_empty() {
            lines.push("no circuits: depth_gmean is the empty product 1".into());
        }
        lines.extend(e.failures.iter().cloned());
        let total_s: f64 = e.latency_s.iter().sum();
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", median(&e.setup_s));
        metrics.insert(
            "latency_p50_ms",
            p50.expect("every workload runs >= 20 operations").value * 1e3,
        );
        metrics.insert(
            "latency_p99_ms",
            p99.expect("every workload runs >= 1000 operations").value * 1e3,
        );
        metrics.insert("throughput_rps", n as f64 / total_s);
        metrics.insert("sweep_s", median(&e.pass_s));
        metrics
            .insert("deadline_met_share", ratio(e.deadlines_met as f64, e.deadlines as f64, 1.0));
        metrics.insert("named_backend_share", ratio(e.named as f64, e.replies as f64, 1.0));
        metrics.insert("plan_cost_ratio_gmean", gmean(&e.cost_ratios));
        metrics.insert("depth_gmean", gmean(&e.depths));
        metrics.insert("valid_shot_share", ratio(e.valid_shots as f64, e.shots as f64, 0.0));
        metrics.insert("peak_rss_mb", peak_rss_mb());
        let report = Report { attempted: e.attempted, failed: e.failed, metrics, lines };
        report.with_metric_lines(&END_TO_END)
    }

    /// The per-layer report of traced passes.
    pub fn per_layer(l: &Layers, checks: &EndToEnd) -> Report {
        let layers = l.tracer.layers();
        let none = Layer::default();
        let get = |name: &str| layers.get(name).unwrap_or(&none);
        let per_pass = |v: f64| v / l.passes.max(1) as f64;
        let count = |name: &str| l.counters.get(name).copied().unwrap_or(0) as f64;
        let sample_sweeps = get("anneal.sample").work + get("anneal.sqa").work;
        let sample_s = get("anneal.sample").total_s() + get("anneal.sqa").total_s();
        let lookups = l.cache.hits + l.cache.misses;
        let embeds = l.cache.embed_hits + l.cache.embed_misses;
        // The traced passes replay the untraced passes' operations, so
        // per-pass means of the two compare directly.
        let untraced = l.untraced_s / l.untraced_passes.max(1) as f64;
        let traced = l.traced_s / l.passes.max(1) as f64;
        let (_, covered) = l.tracer.coverage();
        let covered = per_pass(covered);
        let ops_per_pass = per_pass(l.ops as f64);

        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        let us = |name: &str| get(name).mean_s() * 1e6;
        let ms = |name: &str| get(name).mean_s() * 1e3;
        m.insert("serve.canonicalize_us", us("serve.canonicalize"));
        m.insert("serve.pre_check_us", us("serve.pre_check"));
        m.insert(
            "serve.unattributed_us",
            if l.serving { (untraced - covered) / ops_per_pass * 1e6 } else { 0.0 },
        );
        m.insert("serve.cache.hit_rate", ratio(l.cache.hits as f64, lookups as f64, 0.0));
        m.insert("serve.cache.evictions", per_pass(l.cache.evictions as f64));
        m.insert(
            "serve.cache.embed_hit_rate",
            ratio(l.cache.embed_hits as f64, embeds as f64, 0.0),
        );
        m.insert("core.encode_us", us("core.encode"));
        m.insert("core.qubo_vars", ratio(l.qubo_vars.iter().sum(), l.qubo_vars.len() as f64, 0.0));
        m.insert("core.decode_us", us("core.decode"));
        m.insert(
            "core.decode.valid_ratio",
            ratio(l.valid_decodes as f64, l.solve_attempts as f64, 0.0),
        );
        m.insert("core.greedy_us", us("core.greedy"));
        m.insert("core.dp_us", us("core.dp"));
        m.insert("qubo.sa_ms", ms("qubo.sa"));
        m.insert("qubo.sa.sweeps", per_pass(count("sa.sweeps")));
        m.insert("qubo.sa.sweeps_per_s", get("qubo.sa").work_per_s());
        m.insert("qubo.tabu_ms", ms("qubo.tabu"));
        m.insert("qubo.tabu.iterations", per_pass(count("tabu.iterations")));
        m.insert("qubo.tabu.iterations_per_s", get("qubo.tabu").work_per_s());
        m.insert("anneal.embed_ms", get("anneal.embed").median_s() * 1e3);
        m.insert("anneal.embed_max_ms", get("anneal.embed").max_s() * 1e3);
        m.insert("anneal.embed.calls", per_pass(get("anneal.embed").calls as f64));
        m.insert(
            "anneal.embed.success_ratio",
            ratio(l.embeds_found as f64, get("anneal.embed").calls as f64, 0.0),
        );
        m.insert("anneal.embed.tries", per_pass(count("embed.tries")));
        m.insert(
            "anneal.embed.phys_per_logical",
            ratio(l.embed_physical as f64, l.embed_logical as f64, 0.0),
        );
        m.insert("anneal.sample_ms", ms("anneal.sample"));
        m.insert("anneal.sqa_ms", ms("anneal.sqa"));
        m.insert("anneal.sqa.sweeps", per_pass(count("sqa.sweeps")));
        m.insert("anneal.sqa.sweeps_per_s", ratio(sample_sweeps as f64, sample_s, 0.0));
        m.insert(
            "anneal.chain_break_fraction",
            ratio(l.chain_breaks.iter().sum(), l.chain_breaks.len() as f64, 0.0),
        );
        m.insert("sched.race_ms", ms("sched.race"));
        m.insert(
            "sched.cancel_rate",
            ratio(l.racers_cancelled as f64, l.racers_entered as f64, 0.0),
        );
        m.insert("resil.serve.solve.retries", per_pass(count("resil.serve.solve.retries")));
        m.insert("resil.serve.solve.exhausted", per_pass(count("resil.serve.solve.exhausted")));
        m.insert("resil.serve.solve.recovered", per_pass(count("resil.serve.solve.recovered")));
        m.insert("transpile.layout_ms", ms("transpile.layout"));
        m.insert("transpile.route_ms", ms("transpile.route"));
        m.insert("transpile.decompose_ms", ms("transpile.decompose"));
        m.insert("transpile.optimize_ms", ms("transpile.optimize"));
        m.insert("transpile.swaps_per_circuit", ratio(l.swaps as f64, l.circuits as f64, 0.0));
        m.insert("gatesim.expectation_ms", ms("gatesim.expectation"));
        m.insert(
            "gatesim.noisy.shots_per_s",
            ratio(l.noisy_shots as f64, get("gatesim.noisy").total_s(), 0.0),
        );
        m.insert("obs.coverage_share", ratio(covered, untraced, 0.0));
        m.insert("obs.traced_minus_untraced_s", traced - untraced);
        m.insert("obs.trace_overhead_share", ratio(traced - untraced, untraced, 0.0));
        m.insert("obs.replay_mismatches", l.mismatches as f64);

        let mut lines = vec![
            format!(
                "{} traced and {} untraced passes of {ops_per_pass} operations",
                l.passes, l.untraced_passes
            ),
            format!(
                "stage spans cover {:.4} of untraced operation time; traced - untraced = {:.6} s per pass",
                ratio(covered, untraced, 0.0),
                traced - untraced
            ),
        ];
        let mut by_self: Vec<(&str, &Layer)> = layers.iter().map(|(k, v)| (*k, v)).collect();
        by_self.sort_by(|a, b| b.1.total_s().total_cmp(&a.1.total_s()));
        for (name, layer) in by_self {
            lines.push(format!(
                "span {name}: {} calls, self {:.6} s per pass",
                per_pass(layer.calls as f64),
                per_pass(layer.total_s())
            ));
        }
        lines.extend(checks.failures.iter().cloned());
        let report =
            Report { attempted: checks.attempted, failed: checks.failed, metrics: m, lines };
        report.with_metric_lines(&PER_LAYER)
    }

    fn with_metric_lines(mut self, names: &[(&'static str, &str)]) -> Report {
        for (name, unit) in names {
            let v = self.metrics[name];
            self.lines.push(format!("{name} = {v} {unit}"));
        }
        self
    }

    /// Whether every checked output passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The JSON result line: exactly the metric set of the mode.
    pub fn result_line(&self, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        assert_eq!(self.metrics.len(), names.len(), "a workload left a metric unset");
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics[name];
                assert!(v.is_finite(), "{name} is not a finite number: {v}");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_obs::json::Json;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn passes_repeat_until_the_next_would_overrun() {
        let mut n = 0;
        assert_eq!(repeat_for(0.0, || n += 1), 1);
        let passes = repeat_for(0.05, || std::thread::sleep(std::time::Duration::from_millis(10)));
        assert!((3..=5).contains(&passes), "{passes}");
    }

    #[test]
    fn set_up_repeats_only_when_due() {
        let mut calls = 0;
        let mut times = Vec::new();
        {
            let mut sampler = SetupSampler::new(0.05, || calls += 1);
            sampler.tick(&mut times);
            std::thread::sleep(std::time::Duration::from_millis(60));
            for _ in 0..100 {
                sampler.tick(&mut times);
            }
        }
        assert_eq!((calls, times.len()), (1, 1));
    }

    #[test]
    fn git_rev_reads_refs_without_running_git() {
        let files = |entries: &'static [(&'static str, &'static str)]| {
            move |name: &str| {
                entries.iter().find(|(n, _)| *n == name).map(|(_, body)| body.to_string())
            }
        };
        let packed: &'static [(&str, &str)] = &[
            ("HEAD", "ref: refs/heads/main\n"),
            ("packed-refs", "# pack\nabc123 refs/heads/main\n"),
        ];
        assert_eq!(git_rev_from(files(packed)), "abc123");
        let loose: &'static [(&str, &str)] =
            &[("HEAD", "ref: refs/heads/main\n"), ("refs/heads/main", "def456\n")];
        assert_eq!(git_rev_from(files(loose)), "def456");
        assert_eq!(git_rev_from(files(&[("HEAD", "0123abcd\n")])), "0123abcd");
        assert_eq!(git_rev_from(files(&[])), "unknown");
    }
}
