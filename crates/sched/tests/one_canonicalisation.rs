//! Each served request is canonicalised exactly once.
//!
//! With a one-leaf search budget a uniform 4-cycle never finishes the
//! canonical search, so every canonicalisation bumps the global
//! `serve.fingerprint.budget_exhausted` counter. The annealer's residency
//! peek in `pre_check` is the one allowed second canonicalisation. The
//! file holds one test so that nothing else in its process moves the
//! counter.

use std::sync::Arc;

use qjo_anneal::{hardware::pegasus_like, AnnealerSampler, SqaConfig};
use qjo_core::{JoEncoder, QueryGenerator, QueryGraph};
use qjo_exec::Parallelism;
use qjo_qubo::solve::{SimulatedAnnealing, TabuSearch};
use qjo_serve::{
    AnnealerBackend, DpBackend, FingerprintConfig, FormulationCache, GreedyBackend,
    JoinOrderOptimizer, Request, SaBackend, Service, SqaBackend, TabuBackend,
};

fn canonicalisations() -> u64 {
    qjo_obs::counter("serve.fingerprint.budget_exhausted").get()
}

#[test]
fn every_request_is_canonicalised_once() {
    let fingerprint = FingerprintConfig { leaf_budget: 1, ..FingerprintConfig::default() };
    let cache = Arc::new(FormulationCache::new(JoEncoder::default(), fingerprint, 64));
    let c = || cache.clone();
    let (config, sampler) = (SqaConfig::default(), AnnealerSampler::new(pegasus_like(8)));
    let backends: [(&str, Box<dyn JoinOrderOptimizer>); 6] = [
        ("dp", Box::new(DpBackend::default())),
        ("greedy", Box::new(GreedyBackend)),
        ("sa", Box::new(SaBackend { cache: c(), solver: SimulatedAnnealing::default() })),
        ("tabu", Box::new(TabuBackend { cache: c(), solver: TabuSearch::default() })),
        ("sqa", Box::new(SqaBackend { cache: c(), config, annealing_time_us: 4.0, num_reads: 4 })),
        ("annealer", Box::new(AnnealerBackend { cache: c(), sampler })),
    ];
    let mut svc = Service::new(backends.map(|(n, b)| (n.to_string(), b)).into(), c());
    qjo_sched::install_auto(&mut svc, 7, Parallelism::sequential());

    let query = QueryGenerator {
        log_card_range: (2.0, 2.0),
        log_sel_range: (-1.0, -1.0),
        ..QueryGenerator::paper_defaults(QueryGraph::Cycle, 4)
    }
    .generate(0);
    let mut requests = Vec::new();
    for deadline_ms in [None, Some(60_000), Some(0)] {
        for backend in ["dp", "greedy", "sa", "tabu", "sqa", "annealer", "auto"] {
            let id = format!("{backend}/{deadline_ms:?}");
            let query = query.clone();
            requests.push(Request { id, backend: backend.into(), deadline_ms, query });
        }
    }
    let expected = |req: &Request| 1 + u64::from(req.backend == "annealer");

    for req in &requests {
        let before = canonicalisations();
        svc.handle(req);
        assert_eq!(canonicalisations() - before, expected(req), "{}", req.id);
    }
    // A batch adds none of its own: each request's grouping key is the
    // canonical form it is then served with.
    let before = canonicalisations();
    svc.handle_batch(&requests);
    assert_eq!(canonicalisations() - before, requests.iter().map(expected).sum::<u64>());
    // An unknown backend is answered without one.
    let before = canonicalisations();
    svc.handle(&Request { backend: "quantum-donut".into(), ..requests[0].clone() });
    assert_eq!(canonicalisations(), before);
}
