//! Property suite for the physical routing hot paths: a search through a
//! warm, reused scratch buffer must be *observably identical* to the same
//! search on a fresh one, on arbitrary random topologies. This is the
//! contract that lets the mappers keep one scratch per worker without
//! perturbing any RNG stream or mapping result.

use emumap::graph::algo::dijkstra;
use emumap::graph::{generators, EdgeId, Graph, NodeId};
use emumap::mapping::{
    astar_prune, hop_distances, naive_dfs_route, AStarPruneConfig, DfsScratch, RouteScratch,
    SearchStats,
};
use emumap::model::{
    HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysNode, PhysicalTopology, ResidualState,
    StorGb, VmmOverhead,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

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

    /// Dominance pruning is a heuristic (it may tie-break differently),
    /// but any path it returns must satisfy the same feasibility
    /// contract as the exhaustive search: demand fits every edge and the
    /// latency bound holds.
    #[test]
    fn dominance_pruned_paths_are_feasible((phys, seed) in arb_cluster()) {
        let residual = ResidualState::new(&phys);
        let (origin, dest) = pick_pair(&phys, seed);
        let ar = dijkstra(phys.graph(), dest, |_, l| l.lat.value())
            .distances()
            .to_vec();
        let config = AStarPruneConfig {
            prune_dominated: true,
            ..Default::default()
        };
        let demand = Kbps(150.0);
        let bound = Millis(45.0);
        if let Some((path, stats)) = astar_prune(
            &phys, &residual, origin, dest, demand, bound, &ar, &config, &mut RouteScratch::new(),
        ) {
            let lat: f64 = path.iter().map(|&e| phys.link(e).lat.value()).sum();
            prop_assert!(lat <= bound.value() + 1e-9);
            for &e in &path {
                prop_assert!(residual.bw(e).value() >= demand.value());
            }
            prop_assert!(stats.expanded > 0);
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
        let (phys, s) = arb_cluster().generate(&mut rng);
        match name {
            "dfs_route_scratch_matches_fresh" => {
                let (fresh, warm) = dfs_fresh_and_warm(&phys, s);
                assert_eq!(fresh, warm);
            }
            "astar_prune_csr_scratch_matches_fresh" => {
                let (fresh, warm) = astar_fresh_and_warm(&phys, s);
                assert_eq!(fresh, warm);
            }
            other => panic!("regression file pins unknown test '{other}'"),
        }
        replayed += 1;
    }
    assert!(replayed > 0, "regression file pinned no cases");
}
