//! Per-request instance features the scheduler predicts costs from.
//!
//! Everything here is a *pure function of the request and a cache peek*:
//! no clocks, no measurements, no cache mutation — so two services
//! replaying the same request stream extract identical features and make
//! identical scheduling decisions at any thread count.

use qjo_core::{qubit_upper_bound, Query};
use qjo_serve::{CanonicalQuery, FormulationCache};

/// The feature vector the portfolio predicts backend costs from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceFeatures {
    /// Relations in the join graph (`t` in the paper).
    pub relations: usize,
    /// Join predicates (graph edges; distinguishes chain/star/cycle/clique
    /// densities at equal `t`).
    pub joins: usize,
    /// Upper bound on QUBO variables under the default encoder
    /// configuration (Theorem 5.3 with one threshold, ω = 1) — the `n`
    /// every per-sweep cost model scales with.
    pub qubo_vars: u64,
    /// Whether the request's fingerprint class is already formulated
    /// (a cache peek; racers skip the formulation cost on a hit).
    pub formulation_resident: bool,
    /// Whether a successful minor-embedding of that class's source graph
    /// is stored, possibly embedded by another class with the same graph
    /// (the difference between milliseconds and a cold embed on the
    /// annealer path).
    pub embedding_resident: bool,
}

impl InstanceFeatures {
    /// Extracts the features for `query`, whose canonical form is
    /// `canon`, against `cache` without perturbing the cache (residency
    /// comes from a peek, not a lookup).
    pub fn extract(cache: &FormulationCache, query: &Query, canon: &CanonicalQuery) -> Self {
        let resident = cache.peek_canonical(canon);
        InstanceFeatures {
            relations: query.num_relations(),
            joins: query.num_joins(),
            qubo_vars: qubit_upper_bound(query, 1, 1.0).total() as u64,
            formulation_resident: resident.is_some(),
            embedding_resident: resident.map(|e| e.has_embedding()).unwrap_or(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_core::{JoEncoder, QueryGenerator, QueryGraph};
    use qjo_serve::FingerprintConfig;

    #[test]
    fn features_are_a_pure_peek_and_bound_the_real_formulation() {
        let cache = FormulationCache::new(JoEncoder::default(), FingerprintConfig::default(), 4);
        let q = QueryGenerator::paper_defaults(QueryGraph::Chain, 4).generate(3);
        let canon = cache.canonicalize(&q);
        let f = InstanceFeatures::extract(&cache, &q, &canon);
        assert_eq!(f.relations, 4);
        assert!(f.joins >= 3, "a 4-relation chain has at least 3 joins");
        assert!(!f.formulation_resident && !f.embedding_resident);
        // Extraction never touched the cache.
        assert!(cache.is_empty());
        // The bound dominates the actual formulation width.
        let (_, entry, _) = cache.lookup(&q);
        assert!(f.qubo_vars >= entry.formulation.qubo.num_vars() as u64);
        // Residency flips after the lookup; the bound does not.
        let warm = InstanceFeatures::extract(&cache, &q, &canon);
        assert!(warm.formulation_resident && !warm.embedding_resident);
        assert_eq!(warm.qubo_vars, f.qubo_vars);
    }
}
