//! Property suite for the physical routing hot paths: a search through a
//! warm, reused scratch buffer must be *observably identical* to the same
//! search on a fresh one, on arbitrary random topologies. This is the
//! contract that lets the mappers keep one scratch per worker without
//! perturbing any RNG stream or mapping result. A\*Prune's Pareto-label
//! search must also return exactly the path of the exhaustive search it
//! replaced.

use emumap::graph::algo::dijkstra;
use emumap::graph::generators::Role;
use emumap::graph::{generators, EdgeId, Graph, NodeId};
use emumap::mapping::{
    astar_prune, hop_distances, naive_dfs_route, AStarPruneConfig, DfsScratch, PathMetric,
    RouteScratch, SearchStats,
};
use emumap::model::{
    HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysNode, PhysicalTopology, ResidualState,
    StorGb, VmmOverhead,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

#[path = "../crates/core/tests/support/exhaustive_astar.rs"]
mod exhaustive_astar;
use exhaustive_astar::{exhaustive_astar_prune, Exhaustive};

/// A random connected cluster with heterogeneous link bandwidths and
/// latencies (uniform links would make most equivalence checks vacuous —
/// every path ties). Pure function of the inputs.
fn build_cluster(hosts: usize, density: f64, seed: u64) -> PhysicalTopology {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = generators::random_connected(hosts, density, &mut rng);
    let mut g: Graph<PhysNode, LinkSpec> = Graph::with_capacity(shape.node_count(), 0);
    let ids: Vec<NodeId> = (0..shape.node_count())
        .map(|_| {
            g.add_node(PhysNode::Host(HostSpec::new(
                Mips(2000.0),
                MemMb::from_gb(2),
                StorGb(500.0),
            )))
        })
        .collect();
    for e in shape.edges() {
        let bw = Kbps(rng.gen_range(100.0..2000.0));
        let lat = Millis(rng.gen_range(1.0..10.0));
        g.add_edge(ids[e.a.index()], ids[e.b.index()], LinkSpec::new(bw, lat));
    }
    PhysicalTopology::from_graph(g, VmmOverhead::NONE)
}

fn arb_cluster() -> impl Strategy<Value = (PhysicalTopology, u64)> {
    (3usize..40, 0.0f64..0.5, any::<u64>())
        .prop_map(|(hosts, density, seed)| (build_cluster(hosts, density, seed), seed))
}

/// Picks two distinct hosts, a pure function of (phys, seed).
fn pick_pair(phys: &PhysicalTopology, seed: u64) -> (NodeId, NodeId) {
    let hosts = phys.hosts();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51f3);
    let a = hosts[rng.gen_range(0..hosts.len())];
    let b = loop {
        let b = hosts[rng.gen_range(0..hosts.len())];
        if b != a {
            break b;
        }
    };
    (a, b)
}

/// One DFS route per query, with the next RNG draw after it.
type DfsRuns = Vec<(Option<Vec<EdgeId>>, u64)>;

/// DFS routes of three host pairs, each on a fresh scratch and on one
/// shared warm scratch. Pure function of the inputs.
fn dfs_fresh_and_warm(phys: &PhysicalTopology, seed: u64) -> (DfsRuns, DfsRuns) {
    let residual = ResidualState::new(phys);
    let mut warm_scratch = DfsScratch::default();
    let (mut fresh, mut warm) = (Vec::new(), Vec::new());
    for trial in 0..3u64 {
        let (origin, dest) = pick_pair(phys, seed ^ trial);
        let hops = hop_distances(phys, dest);
        let route = |scratch: &mut DfsScratch| {
            let mut rng = SmallRng::seed_from_u64(seed ^ trial);
            let path = naive_dfs_route(
                phys,
                &residual,
                origin,
                dest,
                Kbps(50.0),
                Millis(90.0),
                &hops,
                &mut rng,
                scratch,
            );
            (path, rng.next_u64())
        };
        fresh.push(route(&mut DfsScratch::default()));
        warm.push(route(&mut warm_scratch));
    }
    (fresh, warm)
}

/// One A\*Prune result per query.
type AStarRuns = Vec<Option<(Vec<EdgeId>, SearchStats)>>;

/// A\*Prune searches of three random queries, each on a fresh scratch and
/// on one shared warm scratch. Pure function of the inputs.
fn astar_fresh_and_warm(phys: &PhysicalTopology, seed: u64) -> (AStarRuns, AStarRuns) {
    let residual = ResidualState::new(phys);
    let config = AStarPruneConfig::default();
    let mut warm_scratch = RouteScratch::new();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa5a5);
    let (mut fresh, mut warm) = (Vec::new(), Vec::new());
    for trial in 0..3u64 {
        let (origin, dest) = pick_pair(phys, seed ^ trial);
        let ar = dijkstra(phys.graph(), dest, |_, l| l.lat.value())
            .distances()
            .to_vec();
        let demand = Kbps(rng.gen_range(1.0..300.0));
        let bound = Millis(rng.gen_range(5.0..60.0));
        let search = |scratch: &mut RouteScratch| {
            astar_prune(
                phys, &residual, origin, dest, demand, bound, &ar, &config, scratch,
            )
        };
        fresh.push(search(&mut RouteScratch::new()));
        warm.push(search(&mut warm_scratch));
    }
    (fresh, warm)
}

/// A cluster with discrete link specs, so that many paths tie: bandwidths
/// of 100-500 kbps and latencies of 0-4 ms, both whole numbers. The shape
/// is a random connected graph, a torus, a ring or a `fat_tree(4)`, whose
/// switches forward but host nothing. Part of every link's bandwidth is
/// already committed. Pure function of the inputs.
fn build_discrete_cluster(
    shape_ix: usize,
    hosts: usize,
    density: f64,
    seed: u64,
) -> (PhysicalTopology, ResidualState) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = match shape_ix {
        0 => generators::random_connected(hosts, density, &mut rng),
        1 => generators::torus2d(3, hosts.div_ceil(3).max(3)),
        2 => generators::ring(hosts),
        _ => generators::fat_tree(4),
    };
    let mut g: Graph<PhysNode, LinkSpec> = Graph::with_capacity(shape.node_count(), 0);
    for (_, role) in shape.nodes() {
        g.add_node(match role {
            Role::Host => PhysNode::Host(HostSpec::new(
                Mips(2000.0),
                MemMb::from_gb(2),
                StorGb(500.0),
            )),
            Role::Switch => PhysNode::Switch,
        });
    }
    for e in shape.edges() {
        let bw = Kbps(f64::from(rng.gen_range(1..=5u32) * 100));
        let lat = Millis(f64::from(rng.gen_range(0..=4u32)));
        g.add_edge(e.a, e.b, LinkSpec::new(bw, lat));
    }
    let phys = PhysicalTopology::from_graph(g, VmmOverhead::NONE);
    let mut residual = ResidualState::new(&phys);
    for e in phys.graph().edge_ids() {
        let committed = rng.gen_range(0..=phys.link(e).bw.value() as u32 / 100) * 50;
        residual.commit_route(&[e], Kbps(f64::from(committed)));
    }
    (phys, residual)
}

fn arb_discrete_cluster() -> impl Strategy<Value = ((PhysicalTopology, ResidualState), u64)> {
    (0usize..4, 3usize..16, 0.0f64..0.6, any::<u64>()).prop_map(|(shape, hosts, density, seed)| {
        (build_discrete_cluster(shape, hosts, density, seed), seed)
    })
}

/// Runs eight random queries under both metrics, with and without the
/// `ar[]` bound, through the Pareto-label search (one warm scratch) and the
/// exhaustive reference, and describes every query where they differ.
/// Queries where the reference hits its expansion cap are skipped.
fn reference_mismatches(
    (phys, residual): &(PhysicalTopology, ResidualState),
    seed: u64,
) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xe4a5);
    let mut scratch = RouteScratch::new();
    let mut mismatches = Vec::new();
    for trial in 0..8u64 {
        let (origin, dest) = pick_pair(phys, seed ^ trial);
        let ar = dijkstra(phys.graph(), dest, |_, l| l.lat.value())
            .distances()
            .to_vec();
        let demand = Kbps(f64::from(rng.gen_range(1..=4u32) * 50));
        let bound = Millis(f64::from(rng.gen_range(0..=14u32)));
        for metric in [PathMetric::BottleneckBandwidth, PathMetric::HopCount] {
            for use_latency_lower_bound in [true, false] {
                let config = AStarPruneConfig {
                    metric,
                    use_latency_lower_bound,
                    max_expansions: 20_000,
                };
                let (reference, _) = exhaustive_astar_prune(
                    phys, residual, origin, dest, demand, bound, &ar, &config,
                );
                let found = astar_prune(
                    phys,
                    residual,
                    origin,
                    dest,
                    demand,
                    bound,
                    &ar,
                    &config,
                    &mut scratch,
                )
                .map(|(path, _)| path);
                let agree = match &reference {
                    Exhaustive::Path(path) => found.as_ref() == Some(path),
                    Exhaustive::NoPath => found.is_none(),
                    Exhaustive::Capped => true,
                };
                if !agree {
                    mismatches.push(format!(
                        "{origin}->{dest} demand {demand} bound {bound} {config:?}: \
                         reference {reference:?}, search {found:?}"
                    ));
                }
            }
        }
    }
    mismatches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The randomized DFS router consumes its RNG identically on a fresh
    /// and on a warm scratch: same path (bit for bit) and same RNG stream
    /// afterwards, so reusing a scratch cannot shift any downstream random
    /// decision.
    #[test]
    fn dfs_route_scratch_matches_fresh((phys, seed) in arb_cluster()) {
        let (fresh, warm) = dfs_fresh_and_warm(&phys, seed);
        prop_assert_eq!(fresh, warm);
    }

    /// A\*Prune through a warm scratch equals the same search on a fresh
    /// scratch on arbitrary clusters (scratch history must never leak
    /// into a search).
    #[test]
    fn astar_prune_csr_scratch_matches_fresh((phys, seed) in arb_cluster()) {
        let (fresh, warm) = astar_fresh_and_warm(&phys, seed);
        prop_assert_eq!(fresh, warm);
    }

    /// The Pareto-label search returns exactly the exhaustive search's
    /// path, or its `None`, on every query it answers under the cap.
    #[test]
    fn astar_prune_matches_exhaustive_reference((phys, seed) in arb_discrete_cluster()) {
        for mismatch in reference_mismatches(&phys, seed) {
            prop_assert!(false, "{}", mismatch);
        }
    }
}

/// Replays every seed pinned in
/// `proptest-regressions/routing_equivalence.txt`. The in-tree proptest
/// shim has no automatic persistence, so this file is the suite's
/// regression memory: a seed added here reruns on every `cargo test`.
#[test]
fn regression_seeds_replay() {
    let pinned = include_str!("../proptest-regressions/routing_equivalence.txt");
    let mut replayed = 0u32;
    for line in pinned.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        assert_eq!(parts.next(), Some("cc"), "bad regression line: {line}");
        let name = parts
            .next()
            .unwrap_or_else(|| panic!("missing test name in: {line}"));
        let seed_tok = parts
            .next()
            .unwrap_or_else(|| panic!("missing seed in: {line}"));
        let seed = u64::from_str_radix(seed_tok.trim_start_matches("0x"), 16)
            .unwrap_or_else(|e| panic!("bad seed {seed_tok}: {e}"));

        let mut rng = SmallRng::seed_from_u64(seed);
        match name {
            "dfs_route_scratch_matches_fresh" => {
                let (phys, s) = arb_cluster().generate(&mut rng);
                let (fresh, warm) = dfs_fresh_and_warm(&phys, s);
                assert_eq!(fresh, warm);
            }
            "astar_prune_csr_scratch_matches_fresh" => {
                let (phys, s) = arb_cluster().generate(&mut rng);
                let (fresh, warm) = astar_fresh_and_warm(&phys, s);
                assert_eq!(fresh, warm);
            }
            "astar_prune_matches_exhaustive_reference" => {
                let (phys, s) = arb_discrete_cluster().generate(&mut rng);
                assert_eq!(reference_mismatches(&phys, s), Vec::<String>::new());
            }
            other => panic!("regression file pins unknown test '{other}'"),
        }
        replayed += 1;
    }
    assert!(replayed > 0, "regression file pinned no cases");
}
