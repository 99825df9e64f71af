//! Steady benchmark of the qjo workspace: serve latency, plan quality and
//! co-design sweep time over three workloads, with a traced per-layer
//! breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, measured with no spans recorded; with
//! `--trace 1` they are the per-layer set, from a traced replay of the
//! same inputs. `--workload all` runs every workload in turn. See
//! `perfbench/NOTES.md` for what each metric means and what the benchmark
//! leaves out.

mod codesign;
mod measure;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use measure::{Env, Report};

/// The workloads, each with the reason it was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    ("serve-hot", "a dozen hot classes per session: nearly every lookup hits and nothing embeds"),
    ("anneal-cold", "annealer traffic over more classes than the cache holds: embeds dominate"),
    (
        "codesign",
        "the Fig. 5 transpile sweep and a Table 2 cell: the only path to transpile and gatesim",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: perfbench --workload <{}|all> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(workload: &str, args: &Args, env: &Env) -> Report {
    match workload {
        "serve-hot" => serve::run(serve::Kind::Hot, args.seed, args.seconds, args.trace, env),
        "anneal-cold" => serve::run(serve::Kind::Cold, args.seed, args.seconds, args.trace, env),
        "codesign" => codesign::run(args.seed, args.seconds, args.trace, env),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let env = Env::detect();
    let selected: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.iter().map(|w| w.0).collect(),
        one => vec![one],
    };
    // A failed output check is reported as `"correct": false` in the
    // result line, which the run still prints; the exit code only
    // reports whether the benchmark itself could run.
    for workload in selected {
        let why = WORKLOADS.iter().find(|w| w.0 == workload).map_or("", |w| w.1);
        println!("# workload {workload}: {why}");
        println!(
            "# seed {} seconds {} trace {} nproc {} threads {} git {}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            env.nproc,
            env.threads,
            env.git_rev
        );
        let report = run(workload, &args, &env);
        for line in &report.lines {
            println!("# {line}");
        }
        println!("{}", report.result_line(args.trace));
    }
    ExitCode::SUCCESS
}
