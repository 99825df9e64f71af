//! The `codesign` workload: the paper's Fig. 5 transpile sweep and one
//! Table 2 cell.
//!
//! It is the only workload that reaches `transpile` and `gatesim`: the
//! serving `qaoa` backend rejects every query with t >= 3 (those need at
//! least 24 qubits against its 16-qubit cap), so serve traffic never runs
//! either layer. One operation is one circuit compile; a pass compiles the
//! whole grid once and then runs the Table 2 cell (parameter search on
//! the statevector, then noisy shots).
//!
//! The traced pass replays every compile pass by pass through the entry
//! points `Transpiler::transpile` calls, and the Table 2 cell through
//! `QaoaSimulator::expectation` and `NoisySimulator::sample`, checking
//! that depths and valid-shot counts equal the untraced ones.

use std::time::Instant;

use qjo_core::classical::dp_optimal;
use qjo_core::{
    decode_assignment, JoEncoder, JoQubo, Query, QueryGenerator, QueryGraph, ThresholdSpec,
};
use qjo_exec::{stream_seed, Parallelism};
use qjo_gatesim::optim::GradientDescent;
use qjo_gatesim::{qaoa_circuit, Circuit, NoiseModel, NoisySimulator, QaoaParams, QaoaSimulator};
use qjo_qubo::SampleSet;
use qjo_transpile::layout::greedy_layout;
use qjo_transpile::optimize::{cancel_pairs, merge_rotations};
use qjo_transpile::routing::route;
use qjo_transpile::{respects_topology, Device, NativeGateSet, RouterConfig, Strategy, Transpiler};

use crate::measure::{
    repeat_for, timed_setup, EndToEnd, Env, Layers, Report, SetupSampler, SETUP_EVERY_S,
};

/// Set-up repetitions before the first pass; more are interleaved with
/// the passes, and `setup_s` is the median of all of them.
const SETUP_REPS: usize = 5;
/// Relation counts of the Fig. 5 circuits.
const RELATIONS: [usize; 3] = [3, 4, 5];
/// Seed of the Fig. 5 queries. Like the Table 2 cell they are part of
/// the workload's definition: drawing them from the workload seed moved
/// circuit sizes, and with them depth and compile time, from seed to
/// seed. The workload seed draws the layout and densification seeds and
/// the shot noise.
const QUERY_SEED: u64 = 0xf155;
/// Cycle queries compiled per relation count.
const QUERIES_PER_SIZE: usize = 2;
/// Extended-connectivity densities of the superconducting devices (the
/// Fig. 5 grid).
const DENSITIES: [f64; 7] = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0];
/// Layout seeds compiled per grid point.
const TRANSPILE_SEEDS: u64 = 6;
/// Gradient-descent iterations of the Table 2 parameter search (the
/// paper's smaller budget).
const TABLE2_ITERATIONS: usize = 20;
/// Noisy shots of the Table 2 cell.
const TABLE2_SHOTS: usize = 4096;
/// Noise trajectories the shots are split over. Each trajectory draws
/// one error pattern, so the valid-shot share varies mostly between
/// trajectories: with 8 it moved 16% from seed to seed.
const TABLE2_TRAJECTORIES: usize = 32;
/// Layout perturbation `Transpiler::transpile` applies.
const LAYOUT_PERTURBATION: usize = 2;

/// One compile: a circuit onto a device under a gate set and pipeline.
struct Compile {
    circuit: usize,
    device: usize,
    gate_set: NativeGateSet,
    strategy: Strategy,
    seed: u64,
}

/// The Table 2 cell's query, formulation and exact optimum.
struct Cell {
    query: Query,
    enc: JoQubo,
    optimum: f64,
    seed: u64,
}

struct Inputs {
    circuits: Vec<Circuit>,
    devices: Vec<Device>,
    compiles: Vec<Compile>,
    cell: Cell,
}

fn generate(seed: u64) -> Inputs {
    let mut circuits = Vec::new();
    let mut devices = Vec::new();
    let mut compiles = Vec::new();
    let shapes = RELATIONS.iter().flat_map(|&t| (0..QUERIES_PER_SIZE).map(move |i| (t, i)));
    for (c, (t, i)) in shapes.enumerate() {
        let query = QueryGenerator::paper_defaults(QueryGraph::Cycle, t)
            .generate(stream_seed(QUERY_SEED, (t * QUERIES_PER_SIZE + i) as u64));
        let enc =
            JoEncoder { thresholds: ThresholdSpec::Auto(2), omega: 1.0, ..Default::default() }
                .encode(&query);
        let n = enc.num_qubits();
        circuits.push(qaoa_circuit(
            &enc.qubo.to_ising(),
            &QaoaParams { gammas: vec![0.4], betas: vec![0.3] },
        ));
        let first = devices.len();
        devices.push(Device::ionq(n));
        for base in [Device::ibm_extrapolated(n), Device::rigetti_extrapolated(n)] {
            for &d in &DENSITIES {
                devices.push(if d == 0.0 {
                    base.clone()
                } else {
                    base.with_density(d, stream_seed(seed, 17))
                });
            }
        }
        for (device, target) in devices.iter().enumerate().skip(first) {
            // Fill every lazily cached distance row now, so the first
            // pass pays no more than later ones.
            for q in 0..target.topology.num_qubits() {
                target.topology.distance(q, 0);
            }
            for gate_set in [target.gate_set, NativeGateSet::Unrestricted] {
                for strategy in [Strategy::QiskitLike, Strategy::TketLike] {
                    for r in 0..TRANSPILE_SEEDS {
                        let seed = stream_seed(seed, (c as u64) << 32 | r);
                        compiles.push(Compile { circuit: c, device, gate_set, strategy, seed });
                    }
                }
            }
        }
    }
    // The paper's cell: the zero-predicate query of the Table 2 sweep
    // (query seed 0), whose formulation has 19 qubits. It does not move
    // with the workload seed, which draws the noise instead: which query
    // a seed drew moved the valid-shot share by 20% from seed to seed.
    let gen = QueryGenerator {
        log_card_range: (1.0, 3.0),
        ..QueryGenerator::paper_defaults(QueryGraph::Cycle, 3)
    };
    let query = gen.with_predicate_count(0, 0);
    let enc = JoEncoder { thresholds: ThresholdSpec::Auto(1), ..Default::default() }.encode(&query);
    let (_, optimum) = dp_optimal(&query);
    let cell = Cell { query, enc, optimum, seed: stream_seed(seed, 3) };
    Inputs { circuits, devices, compiles, cell }
}

/// Checks a compiled circuit: every two-qubit gate on a coupled pair and
/// every gate native to the target.
fn check_compiled(out: &Circuit, device: &Device, gate_set: NativeGateSet) -> Result<(), String> {
    if !respects_topology(out, &device.topology) {
        return Err(format!("circuit violates the coupling graph of {}", device.name));
    }
    if let Some(g) = out.gates().iter().find(|g| !gate_set.is_native(g)) {
        return Err(format!("gate {g:?} is not native to {gate_set:?}"));
    }
    Ok(())
}

/// Valid shots of the cell and the cost ratio of each; fails when a
/// decoded order beats the exact optimum.
fn assess(cell: &Cell, samples: &SampleSet) -> Result<(u64, Vec<f64>), String> {
    let mut valid = 0;
    let mut ratios = Vec::new();
    for s in samples.samples() {
        if let Some(jo) = decode_assignment(&s.assignment, &cell.enc.registry, &cell.query) {
            let ratio = jo.cost(&cell.query) / cell.optimum;
            if ratio < 1.0 - 1e-9 {
                return Err(format!("a shot decodes to cost ratio {ratio} below the optimum"));
            }
            valid += u64::from(s.occurrences);
            ratios.extend(std::iter::repeat_n(ratio, s.occurrences as usize));
        }
    }
    Ok((valid, ratios))
}

fn noisy(cell: &Cell, par: Parallelism) -> NoisySimulator {
    NoisySimulator {
        model: NoiseModel::ibm_auckland(),
        trajectories: TABLE2_TRAJECTORIES,
        seed: cell.seed,
        parallelism: par,
    }
}

fn search() -> GradientDescent {
    GradientDescent { iterations: TABLE2_ITERATIONS, learning_rate: 0.05, fd_step: 1e-3 }
}

fn samples_of(cell: &Cell, reads: &qjo_qubo::ShotBuffer) -> SampleSet {
    SampleSet::from_shots(reads, |x| {
        cell.enc.qubo.energy(x).expect("shot rows match the formulation")
    })
}

/// One pass, repeating the set-up between compiles when `setup` says one
/// is due; returns every compile's depth (`None` if it failed), the
/// cell's valid shots, and the seconds spent in measured calls.
fn untraced_pass(
    inp: &Inputs,
    par: Parallelism,
    e: &mut EndToEnd,
    mut setup: Option<&mut SetupSampler>,
) -> (Vec<Option<usize>>, u64, f64) {
    let mut depths = Vec::with_capacity(inp.compiles.len());
    let mut measured = 0.0;
    for (i, c) in inp.compiles.iter().enumerate() {
        let device = &inp.devices[c.device];
        let t0 = Instant::now();
        let out = Transpiler::new(c.strategy, c.seed).transpile(
            &inp.circuits[c.circuit],
            &device.topology,
            c.gate_set,
        );
        let dt = t0.elapsed().as_secs_f64();
        measured += dt;
        e.latency_s.push(dt);
        e.replies += 1;
        let verdict = match &out {
            Ok(r) => check_compiled(&r.circuit, device, c.gate_set),
            Err(err) => Err(err.to_string()),
        };
        let depth = out.as_ref().ok().map(|r| r.depth());
        depths.push(depth);
        if let Some(depth) = depth {
            e.named += 1;
            if verdict.is_ok() {
                e.depths.push(depth as f64);
            }
        }
        e.check(&format!("compile{i}@{}", device.name), verdict);
        if let Some(s) = setup.as_mut() {
            s.tick(&mut e.setup_s);
        }
    }
    let cell = &inp.cell;
    let t0 = Instant::now();
    let sim = QaoaSimulator::new(&cell.enc.qubo);
    let opt = search().minimize(|x| sim.expectation(&QaoaParams::from_flat(1, x)), &[0.1, 0.1]);
    let circuit = qaoa_circuit(&cell.enc.qubo.to_ising(), &QaoaParams::from_flat(1, &opt.x));
    let reads = noisy(cell, par).sample(&circuit, TABLE2_SHOTS);
    measured += t0.elapsed().as_secs_f64();
    let samples = samples_of(cell, &reads);
    let mut valid = 0;
    let verdict = assess(cell, &samples).map(|(v, ratios)| {
        valid = v;
        e.cost_ratios.extend(ratios);
    });
    e.shots += samples.total_reads();
    e.valid_shots += valid;
    e.check("table2", verdict);
    e.pass_s.push(measured);
    (depths, valid, measured)
}

/// One traced pass, compared against the untraced `depths` and `valid`.
fn traced_pass(
    inp: &Inputs,
    par: Parallelism,
    l: &mut Layers,
    e: &mut EndToEnd,
    depths: &[Option<usize>],
    valid: u64,
) {
    let mut tr = std::mem::take(&mut l.tracer);
    let mut depths = depths.iter();
    for (i, c) in inp.compiles.iter().enumerate() {
        let device = &inp.devices[c.device];
        let circuit = &inp.circuits[c.circuit];
        let topo = &device.topology;
        let t0 = Instant::now();
        let compiled = tr.span("codesign.compile", |tr| {
            // The passes `Transpiler::transpile` runs for the line-router
            // strategies, with its layout perturbation and router settings.
            let layout = tr.span("transpile.layout", |_| {
                greedy_layout(circuit, topo, c.seed, LAYOUT_PERTURBATION)
            });
            let lookahead = if c.strategy == Strategy::QiskitLike { 4 } else { 1 };
            let routed = tr.span("transpile.route", |_| {
                route(circuit, topo, &layout, RouterConfig { lookahead, decay: 0.5 })
            })?;
            let decomposed =
                tr.span("transpile.decompose", |_| c.gate_set.decompose_circuit(&routed.circuit));
            let optimised = tr.span("transpile.optimize", |_| match c.strategy {
                Strategy::TketLike => cancel_pairs(&decomposed),
                _ => merge_rotations(&decomposed),
            });
            Ok::<_, qjo_transpile::TranspileError>((optimised, routed.swaps_inserted))
        });
        l.traced_s += t0.elapsed().as_secs_f64();
        l.ops += 1;
        let verdict = match &compiled {
            Ok((out, swaps)) => {
                l.circuits += 1;
                l.swaps += *swaps as u64;
                if depths.next() != Some(&Some(out.depth())) {
                    l.mismatches += 1;
                }
                check_compiled(out, device, c.gate_set)
            }
            Err(err) => {
                if depths.next() != Some(&None) {
                    l.mismatches += 1;
                }
                Err(err.to_string())
            }
        };
        e.check(&format!("compile{i}@{}", device.name), verdict);
    }
    let cell = &inp.cell;
    let t0 = Instant::now();
    let reads = tr.span("codesign.table2", |tr| {
        let sim = QaoaSimulator::new(&cell.enc.qubo);
        let opt = search().minimize(
            |x| tr.span("gatesim.expectation", |_| sim.expectation(&QaoaParams::from_flat(1, x))),
            &[0.1, 0.1],
        );
        let circuit = qaoa_circuit(&cell.enc.qubo.to_ising(), &QaoaParams::from_flat(1, &opt.x));
        tr.span("gatesim.noisy", |_| noisy(cell, par).sample(&circuit, TABLE2_SHOTS))
    });
    l.traced_s += t0.elapsed().as_secs_f64();
    l.noisy_shots += TABLE2_SHOTS as u64;
    let verdict = assess(cell, &samples_of(cell, &reads)).map(|(v, _)| {
        if v != valid {
            l.mismatches += 1;
        }
    });
    e.check("table2", verdict);
    l.passes += 1;
    l.tracer = tr;
}

/// Runs the co-design workload for `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool, env: &Env) -> Report {
    let par = env.parallelism();
    let mut e = EndToEnd::default();
    let (inputs, times) = timed_setup(SETUP_REPS, || generate(seed));
    e.setup_s = times;
    // One untimed pass first. The first pass over the inputs ran its
    // slowest compiles up to half again as slow as later passes, so a run
    // that fit one timed pass reported a p99 40% above one that fit two.
    untraced_pass(&inputs, par, &mut EndToEnd::default(), None);
    if !traced {
        let mut sampler = SetupSampler::new(SETUP_EVERY_S, || drop(generate(seed)));
        repeat_for(seconds, || {
            untraced_pass(&inputs, par, &mut e, Some(&mut sampler));
        });
        return Report::end_to_end(&e, "circuit compiles");
    }
    let mut l = Layers::default();
    repeat_for(seconds, || {
        let (depths, valid, measured) = untraced_pass(&inputs, par, &mut e, None);
        l.untraced_s += measured;
        l.untraced_passes += 1;
        traced_pass(&inputs, par, &mut l, &mut e, &depths, valid);
    });
    Report::per_layer(&l, &e)
}
