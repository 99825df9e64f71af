//! The stage runner behind every `experiments` run: the paper sweep and
//! the `serve-bench`, `sched-bench` and `robustness-bench` subcommands.
//!
//! A [`Driver`] times each live stage, fingerprints and writes every
//! artifact, and finishes the run by writing `BENCH.json` and the run
//! manifest and turning the run's gate verdict into the exit code. The
//! bench subcommands share one argument grammar, [`BenchArgs`], and the
//! sweep and `robustness-bench` share one fault-plan installer,
//! [`install_faults`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use qjo_obs::json::Json;
use qjo_obs::manifest::{Artifact, RunManifest, StageRecord};
use qjo_obs::trace::TraceStats;

use crate::report::Table;

/// Tables whose cells contain wall-clock measurements; their manifest
/// entries are flagged volatile so the drift gate checks shape only.
const VOLATILE_ARTIFACTS: &[&str] = &["scaling_classical", "serve_latency"];

/// Counter / span pairs whose ratio is a meaningful work rate, and the
/// rate's name in `BENCH.json` (work units per wall-clock second spent
/// inside the span).
const RATE_PAIRS: &[(&str, &str, &str)] = &[
    ("anneal.reads", "anneal.sample", "anneal.reads_per_sec"),
    ("embed.tries", "anneal.embed", "embed.tries_per_sec"),
    ("gatesim.shots", "gatesim.noisy.sample", "gatesim.shots_per_sec"),
    ("robust.evals", "robust.eval", "robust.evals_per_sec"),
    ("sa.sweeps", "qubo.sa.sample", "sa.sweeps_per_sec"),
    ("sched.races", "serve.request", "sched.races_per_sec"),
    ("serve.requests", "serve.request", "serve.requests_per_sec"),
    ("sqa.sweeps", "anneal.sample", "sqa.sweeps_per_sec"),
    ("tabu.iterations", "qubo.tabu.solve", "tabu.iterations_per_sec"),
    ("transpile.runs", "transpile.run", "transpile.runs_per_sec"),
];

/// Schema version of `BENCH.json`.
const BENCH_SCHEMA_VERSION: u64 = 1;

/// Collects one run's stages and artifacts and writes its final outputs.
pub struct Driver {
    mode: &'static str,
    which: Vec<String>,
    csv_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    /// Marks the manifest of a sweep resumed from checkpoints.
    pub resumed: bool,
    /// Every artifact fingerprinted so far, in emission order.
    pub artifacts: Vec<Artifact>,
    /// Every stage run (or replayed) so far, in execution order.
    pub stages: Vec<StageRecord>,
    started: Instant,
}

impl Driver {
    /// Starts a run's clock. `mode` and `which` label the manifest;
    /// artifacts go under `csv_dir`, the manifest to `metrics_out` (see
    /// [`Driver::finish`]), and `BENCH.json` to `bench_out` when set.
    pub fn new(
        mode: &'static str,
        which: Vec<String>,
        csv_dir: Option<PathBuf>,
        metrics_out: Option<PathBuf>,
        bench_out: Option<PathBuf>,
    ) -> Driver {
        Driver {
            mode,
            which,
            csv_dir,
            metrics_out,
            bench_out,
            resumed: false,
            artifacts: Vec::new(),
            stages: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Prints `table` under `title` and emits it as `name.csv`.
    pub fn emit_table(&mut self, name: &str, title: &str, table: Table) {
        println!("== {title} ==\n");
        println!("{}", table.render());
        let volatile = VOLATILE_ARTIFACTS.contains(&name);
        self.emit(&format!("{name}.csv"), &table.to_csv(), table.num_rows() as u64, volatile);
    }

    /// Fingerprints `text` into the manifest as `file_name` and, under
    /// `--csv`, writes it atomically into the output directory. `rows` is
    /// the record count the drift gate checks of a volatile artifact.
    pub fn emit(&mut self, file_name: &str, text: &str, rows: u64, volatile: bool) {
        self.artifacts.push(Artifact {
            name: file_name.to_string(),
            rows,
            bytes: text.len() as u64,
            hash: qjo_obs::fnv1a64_hex(text.as_bytes()),
            volatile,
        });
        if let Some(dir) = &self.csv_dir {
            write_logged(&dir.join(file_name), text);
        }
    }

    /// Runs `body` as the live stage `name`: timed under an
    /// `experiments.stage` span and recorded with its wall time and
    /// counter deltas.
    pub fn run_stage<R>(&mut self, name: &str, body: impl FnOnce(&mut Driver) -> R) -> R {
        let before = qjo_obs::global().snapshot();
        let start = Instant::now();
        let out = {
            let _span = qjo_obs::span!("experiments.stage");
            body(self)
        };
        let elapsed = start.elapsed();
        self.stages.push(StageRecord {
            name: name.to_string(),
            duration_ms: elapsed.as_secs_f64() * 1e3,
            counters: qjo_obs::global().snapshot().counter_deltas_since(&before),
        });
        qjo_obs::info!("[{name} took {elapsed:.1?}]");
        out
    }

    /// Ends the run: writes `BENCH.json` (with the trace collector's
    /// statistics, if it ran) and the run manifest, and returns the exit
    /// code for the run's gate verdict (0 passed, 1 failed).
    pub fn finish(self, trace: Option<TraceStats>, passed: bool) -> i32 {
        let total_ms = self.started.elapsed().as_secs_f64() * 1e3;
        self.write_bench(total_ms, trace);
        self.write_manifest(total_ms);
        i32::from(!passed)
    }

    /// Writes `BENCH.json`: the per-run performance trajectory record
    /// (wall times, work rates, span percentiles, trace-buffer
    /// statistics). All values here are timing-derived and therefore
    /// volatile — `BENCH.json` is never diffed, only compared by
    /// `bench-compare` and archived per PR for trend analysis.
    fn write_bench(&self, total_ms: f64, trace: Option<TraceStats>) {
        let Some(path) = &self.bench_out else {
            return;
        };
        let snapshot = qjo_obs::global().snapshot();
        let mut root = BTreeMap::new();
        root.insert("schema_version".to_string(), Json::from(BENCH_SCHEMA_VERSION));

        let mut run = BTreeMap::new();
        run.insert("git_rev".to_string(), Json::from(git_rev()));
        run.insert(
            "threads".to_string(),
            Json::from(qjo_exec::Parallelism::auto().resolve() as u64),
        );
        run.insert("mode".to_string(), Json::from(self.mode));
        run.insert("total_ms".to_string(), Json::from(round3(total_ms)));
        root.insert("run".to_string(), Json::Obj(run));

        let stage_list = self
            .stages
            .iter()
            .map(|stage| {
                let mut obj = BTreeMap::new();
                obj.insert("name".to_string(), Json::from(stage.name.as_str()));
                obj.insert("duration_ms".to_string(), Json::from(round3(stage.duration_ms)));
                Json::Obj(obj)
            })
            .collect();
        root.insert("stages".to_string(), Json::Arr(stage_list));

        let mut rates = BTreeMap::new();
        for &(counter, span, rate) in RATE_PAIRS {
            let Some(&work) = snapshot.counters.get(counter) else { continue };
            // Spans nest into slash-separated paths (one histogram per
            // call path), so total the span's time across every path it
            // appears in.
            let suffix = format!("/{span}");
            let span_ns: u64 = snapshot
                .histograms
                .iter()
                .filter(|(path, _)| path.as_str() == span || path.ends_with(&suffix))
                .map(|(_, h)| h.sum_ns)
                .sum();
            if work == 0 || span_ns == 0 {
                continue;
            }
            rates
                .insert(rate.to_string(), Json::from(round3(work as f64 / (span_ns as f64 / 1e9))));
        }
        // Not a counter/span pair: the formulation-cache hit *ratio*,
        // hits / (hits + misses). It rides in the rates section so
        // `bench-compare` gates it with the same machinery.
        let count = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let (hits, misses) = (count("serve.cache.hit"), count("serve.cache.miss"));
        if hits + misses > 0 {
            rates.insert(
                "serve.cache_hit_rate".to_string(),
                Json::from(round3(hits as f64 / (hits + misses) as f64)),
            );
        }
        // Same shape for the portfolio's plateau early-cancel *ratio*:
        // racers cancelled on a plateau over racers entered.
        // Deterministic (races run on model budgets), so the gate catches
        // any change to the plateau predicate or the budget split, not
        // timing noise.
        let (cancelled, entered) = (count("sched.racers.cancelled"), count("sched.racers.entered"));
        if entered > 0 {
            rates.insert(
                "sched.cancel_rate".to_string(),
                Json::from(round3(cancelled as f64 / entered as f64)),
            );
        }
        root.insert("rates".to_string(), Json::Obj(rates));

        let spans = snapshot
            .histograms
            .iter()
            .map(|(span_path, h)| {
                let mut obj = BTreeMap::new();
                obj.insert("count".to_string(), Json::from(h.count));
                obj.insert("total_ms".to_string(), Json::from(round3(h.sum_ns as f64 / 1e6)));
                obj.insert("p50_ms".to_string(), Json::from(round3(h.percentile_ms(0.50))));
                obj.insert("p90_ms".to_string(), Json::from(round3(h.percentile_ms(0.90))));
                obj.insert("p99_ms".to_string(), Json::from(round3(h.percentile_ms(0.99))));
                (span_path.clone(), Json::Obj(obj))
            })
            .collect();
        root.insert("spans".to_string(), Json::Obj(spans));

        root.insert(
            "counters".to_string(),
            Json::Obj(snapshot.counters.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect()),
        );

        if let Some(stats) = trace {
            let mut t = BTreeMap::new();
            t.insert("events".to_string(), Json::from(stats.stored));
            t.insert("recorded".to_string(), Json::from(stats.recorded));
            t.insert("dropped".to_string(), Json::from(stats.dropped));
            t.insert("peak_occupancy".to_string(), Json::from(stats.peak_occupancy));
            root.insert("trace".to_string(), Json::Obj(t));
        }

        write_logged(path, &Json::Obj(root).render());
    }

    /// Writes the run manifest to `--metrics-out`, else
    /// `DIR/run_manifest.json` under `--csv`, else
    /// `results/run_manifest.json`; `QJO_MANIFEST=off` disables it.
    fn write_manifest(self, total_ms: f64) {
        if let Ok(v) = std::env::var("QJO_MANIFEST") {
            if matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "false" | "no") {
                qjo_obs::debug!("run manifest disabled via QJO_MANIFEST");
                return;
            }
        }
        let path = self.metrics_out.clone().unwrap_or_else(|| {
            self.csv_dir.as_deref().unwrap_or(Path::new("results")).join("run_manifest.json")
        });
        let mut manifest = RunManifest::default();
        manifest.run.insert("git_rev".to_string(), Json::from(git_rev()));
        manifest.run.insert(
            "threads".to_string(),
            Json::from(qjo_exec::Parallelism::auto().resolve() as u64),
        );
        manifest.run.insert("mode".to_string(), Json::from(self.mode));
        manifest.run.insert(
            "experiments".to_string(),
            Json::Arr(self.which.iter().map(|w| Json::from(w.as_str())).collect()),
        );
        if let Some(plan) = qjo_resil::fault::active() {
            manifest.run.insert("faults".to_string(), Json::from(plan.render()));
        }
        if self.resumed {
            manifest.run.insert("resumed".to_string(), Json::Bool(true));
        }
        manifest.run.insert("total_duration_ms".to_string(), Json::from(round3(total_ms)));
        manifest.stages = self.stages;
        manifest.set_metrics(&qjo_obs::global().snapshot());
        manifest.artifacts = self.artifacts;
        write_logged(&path, &manifest.render());
    }
}

/// Writes `text` to `path` atomically, logging the outcome.
fn write_logged(path: &Path, text: &str) {
    match qjo_resil::atomic_write(path, text.as_bytes()) {
        Ok(()) => qjo_obs::info!("wrote {}", path.display()),
        Err(e) => qjo_obs::error!("failed to write {}: {e}", path.display()),
    }
}

/// The commit the binary runs from, for the volatile `run` sections.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// Installs the run's fault plan: `spec` (from `--faults`) wins over the
/// `QJO_FAULTS` environment variable. A malformed spec from either source
/// is a usage error, so the process exits 2.
pub fn install_faults(spec: Option<&str>) {
    let installed = match spec {
        Some(spec) => qjo_resil::FaultPlan::parse(spec)
            .map(qjo_resil::fault::install)
            .map_err(|e| format!("--faults: {e}")),
        None => {
            qjo_resil::fault::install_from_env().map(drop).map_err(|e| format!("QJO_FAULTS: {e}"))
        }
    };
    if let Err(e) = installed {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if let Some(plan) = qjo_resil::fault::active() {
        qjo_obs::info!("fault injection active: {}", plan.render());
    }
}

/// Flags every bench subcommand accepts. `--smoke` is accepted and
/// implied: each bench's committed smoke profile is its only profile, and
/// accepting the flag lets CI recipes pass the mode everywhere.
const SHARED_BENCH_FLAGS: &[&str] = &["--smoke", "--seed", "--csv", "--metrics-out", "--bench-out"];

/// Arguments of the bench subcommands.
#[derive(Debug)]
pub struct BenchArgs {
    /// Root seed of the bench (default 7).
    pub seed: u64,
    /// Output directory for the artifacts (`--csv DIR`).
    pub csv_dir: Option<PathBuf>,
    /// Run-manifest path (`--metrics-out PATH`).
    pub metrics_out: Option<PathBuf>,
    /// `BENCH.json` path (`--bench-out PATH`).
    pub bench_out: Option<PathBuf>,
    /// `serve-bench --embed-latency-gate`: fail unless the annealer's
    /// cold- and warm-embed p50 latencies stay within their bounds.
    pub embed_latency_gate: bool,
    /// `serve-bench --calibrated`: admit deadlines from the observed work
    /// model instead of the static one (not drift-gateable).
    pub calibrated: bool,
    /// `robustness-bench --instances N`: instances per schema shape
    /// (default 2).
    pub instances: usize,
    /// `robustness-bench --faults SPEC`: the fault plan to run under.
    pub faults: Option<String>,
}

impl BenchArgs {
    /// Parses the arguments of bench subcommand `command`, which accepts
    /// the shared flags plus `extra_flags`. Any other word is an error
    /// naming `command`.
    pub fn parse(command: &str, extra_flags: &[&str], raw: &[String]) -> Result<BenchArgs, String> {
        let mut opts = BenchArgs {
            seed: 7,
            csv_dir: None,
            metrics_out: None,
            bench_out: None,
            embed_latency_gate: false,
            calibrated: false,
            instances: 2,
            faults: None,
        };
        let mut args = raw.iter();
        while let Some(arg) = args.next() {
            let flag = arg.as_str();
            let unknown = || Err(format!("{command}: unknown argument '{flag}'"));
            if !SHARED_BENCH_FLAGS.contains(&flag) && !extra_flags.contains(&flag) {
                return unknown();
            }
            let mut value =
                || args.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
            match flag {
                "--smoke" => {}
                "--seed" => {
                    opts.seed = value()?
                        .parse()
                        .map_err(|e| format!("--seed must be an unsigned integer: {e}"))?;
                }
                "--csv" => opts.csv_dir = Some(PathBuf::from(value()?)),
                "--metrics-out" => opts.metrics_out = Some(PathBuf::from(value()?)),
                "--bench-out" => opts.bench_out = Some(PathBuf::from(value()?)),
                "--embed-latency-gate" => opts.embed_latency_gate = true,
                "--calibrated" => opts.calibrated = true,
                "--instances" => {
                    opts.instances = value()?
                        .parse()
                        .map_err(|e| format!("--instances must be a positive integer: {e}"))?;
                    if opts.instances == 0 {
                        return Err("--instances must be at least 1".to_string());
                    }
                }
                "--faults" => opts.faults = Some(value()?),
                _ => return unknown(),
            }
        }
        Ok(opts)
    }
}
