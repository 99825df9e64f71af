//! Equivalence pins for the minor-embedder.
//!
//! * `chains_match_golden` embeds a fixed set of source graphs and
//!   compares every `Embedding::chains` against
//!   `tests/golden/embed_chains.txt`. Any change to the embedder that
//!   moves a single qubit of a single chain fails here; a pure speed-up
//!   must leave the file untouched. Set `QJO_BLESS_GOLDEN=1` to rewrite
//!   the file after an intended behaviour change.
//! * `kernel_matches_binary_heap_oracle` runs the shortest-path kernel
//!   against the textbook `BinaryHeap<Reverse<(f64, usize)>>` Dijkstra it
//!   replaced, on cost vectors full of ties, and demands bit-equal
//!   distances and equal predecessors.
//! * `embedding_depends_only_on_the_source_graph` pins what a cache that
//!   shares embeddings by `SourceGraph` relies on: QUBOs with one support
//!   and different coefficients embed to equal chains, and the graph
//!   `AnnealerSampler::embed` consumes is `SourceGraph::of`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use qjo_anneal::embed::PathKernel;
use qjo_anneal::hardware::{chimera, pegasus_like};
use qjo_anneal::{AnnealerSampler, Embedder, SourceGraph};
use qjo_qubo::Qubo;
use qjo_transpile::Topology;

const GOLDEN: &str = "tests/golden/embed_chains.txt";

fn complete_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect()
}

/// A connected sparse graph on `n` variables: a random spanning tree plus
/// `n` extra random edges (mean degree about four, like a small join
/// QUBO's interaction graph).
fn sparse_edges(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (rng.random_range(0..v), v)).collect();
    for _ in 0..n {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Embeds every golden case under two embedder seeds and renders one
/// line per (case, seed).
fn render_golden() -> String {
    let mut text =
        String::from("# case seed: chains (';' between variables, ',' between qubits)\n");
    let mut case = |label: String, n: usize, edges: Vec<(usize, usize)>, target: &Topology| {
        for seed in [0u64, 1] {
            let chains = match (Embedder { seed, ..Default::default() }).embed(n, &edges, target) {
                Some(e) => {
                    assert!(e.validate(&edges, target).is_ok(), "{label} seed {seed}");
                    e.chains
                        .iter()
                        .map(|c| c.iter().map(usize::to_string).collect::<Vec<_>>().join(","))
                        .collect::<Vec<_>>()
                        .join(";")
                }
                None => "none".to_string(),
            };
            writeln!(text, "{label} {seed}: {chains}").unwrap();
        }
    };
    for m in [6, 8] {
        let target = pegasus_like(m);
        for k in 5..=10 {
            case(format!("K{k}/pegasus_like({m})"), k, complete_edges(k), &target);
        }
    }
    case("K6/chimera(4)".to_string(), 6, complete_edges(6), &chimera(4));
    let target = pegasus_like(8);
    for (n, seed) in [(25, 11), (40, 12), (60, 13)] {
        case(format!("sparse{n}#{seed}/pegasus_like(8)"), n, sparse_edges(n, seed), &target);
    }
    text
}

#[test]
fn chains_match_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let actual = render_golden();
    if std::env::var_os("QJO_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read golden file");
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "embedding drifted from {GOLDEN}");
    }
    assert_eq!(expected.lines().count(), actual.lines().count(), "case list changed");
}

/// The Dijkstra the kernel replaced, verbatim apart from taking the
/// adjacency and costs as arguments.
fn oracle(target: &Topology, cost: &[f64], sources: &[usize]) -> (Vec<f64>, Vec<usize>) {
    #[derive(PartialEq)]
    struct OrderedF64(f64);
    impl Eq for OrderedF64 {}
    impl Ord for OrderedF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("costs are never NaN")
        }
    }
    impl PartialOrd for OrderedF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = target.num_qubits();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred = vec![usize::MAX; n];
    let mut heap: BinaryHeap<Reverse<(OrderedF64, usize)>> = BinaryHeap::with_capacity(n / 4);
    for &s in sources {
        dist[s] = 0.0;
        heap.push(Reverse((OrderedF64(0.0), s)));
    }
    while let Some(Reverse((OrderedF64(d), q))) = heap.pop() {
        if d > dist[q] {
            continue;
        }
        for &w in target.neighbors(q) {
            let nd = d + cost[w];
            if nd < dist[w] {
                dist[w] = nd;
                pred[w] = q;
                heap.push(Reverse((OrderedF64(nd), w)));
            }
        }
    }
    (dist, pred)
}

#[test]
fn kernel_matches_binary_heap_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD15A);
    for target in [pegasus_like(6), pegasus_like(8), chimera(4), Topology::grid(7, 9)] {
        let n = target.num_qubits();
        let mut kernel = PathKernel::new(&target);
        // Dirty buffers: the kernel must fully reset what it is handed.
        let mut dist = vec![-1.0; 3];
        let mut pred = vec![7; 3 * n];
        for case in 0..60 {
            // Costs are `base^usage` with small usages, exactly the
            // embedder's shape: a handful of distinct values, so equal
            // tentative distances (heap-order ties) are everywhere.
            let base = [2.0, 8.0, 8.0 * 64.0, 0.75][case % 4];
            let cost: Vec<f64> =
                (0..n).map(|_| f64::powi(base, rng.random_range(0..3u32) as i32)).collect();
            let mut sources: Vec<usize> =
                (0..rng.random_range(1..6usize)).map(|_| rng.random_range(0..n)).collect();
            sources.sort_unstable();
            sources.dedup();
            kernel.run(&cost, &sources, &mut dist, &mut pred);
            let (want_dist, want_pred) = oracle(&target, &cost, &sources);
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dist), bits(&want_dist), "dist, n={n} case {case}");
            assert_eq!(pred, want_pred, "pred, n={n} case {case}");
        }
    }
}

#[test]
fn embedding_depends_only_on_the_source_graph() {
    let n = 25;
    let edges = sparse_edges(n, 11);
    let qubo = |scale: f64| {
        let mut q = Qubo::new(n);
        for (k, &(a, b)) in edges.iter().enumerate() {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            q.add_quadratic(a, b, sign * scale * (1 + k % 5) as f64);
        }
        for v in 0..n {
            q.add_linear(v, -scale * v as f64);
        }
        q
    };
    let a = qubo(1.0);
    let mut b = qubo(-3.5);
    // An explicit zero coupling is no edge of the source graph.
    let (i, j) = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .find(|e| !edges.contains(e))
        .expect("the graph is sparse");
    b.add_quadratic(i, j, 0.0);

    let graph = SourceGraph::of(&a);
    assert_eq!(graph, SourceGraph { num_vars: n, edges: edges.clone() });
    assert_eq!(SourceGraph::of(&b), graph);

    let sampler = AnnealerSampler::new(pegasus_like(8));
    let from_a = sampler.embed(&a).expect("a embeds");
    let from_b = sampler.embed(&b).expect("b embeds");
    assert_eq!(from_a.chains, from_b.chains);
    let direct = sampler.embedder.embed(n, &graph.edges, &sampler.topology).expect("embeds");
    assert_eq!(from_a.chains, direct.chains);
}
