//! A*Prune optimality oracle: on small random graphs, exhaustively
//! enumerate every latency-feasible simple path and verify that the
//! modified 1-constrained A*Prune returns a path whose bottleneck residual
//! bandwidth is maximal (the paper's widest-path selection rule), subject
//! to both constraints.

use emumap_core::{astar_prune, AStarPruneConfig, RouteScratch};
use emumap_graph::algo::dijkstra;
use emumap_graph::generators::random_connected;
use emumap_graph::{EdgeId, Graph, NodeId};
use emumap_model::{
    HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysNode, PhysicalTopology, ResidualState,
    StorGb, VmmOverhead,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Enumerates every simple path from `from` to `to`; calls `visit` with
/// (edges, total latency, bottleneck bandwidth).
fn enumerate_paths(
    phys: &PhysicalTopology,
    residual: &ResidualState,
    from: NodeId,
    to: NodeId,
    visit: &mut impl FnMut(&[EdgeId], f64, f64),
) {
    #[allow(clippy::too_many_arguments)]
    fn rec(
        phys: &PhysicalTopology,
        residual: &ResidualState,
        cur: NodeId,
        to: NodeId,
        on_path: &mut Vec<NodeId>,
        edges: &mut Vec<EdgeId>,
        lat: f64,
        bottleneck: f64,
        visit: &mut impl FnMut(&[EdgeId], f64, f64),
    ) {
        if cur == to {
            visit(edges, lat, bottleneck);
            return;
        }
        for &nb in phys.graph().neighbors(cur) {
            if on_path.contains(&nb.node) {
                continue;
            }
            on_path.push(nb.node);
            edges.push(nb.edge);
            rec(
                phys,
                residual,
                nb.node,
                to,
                on_path,
                edges,
                lat + phys.link(nb.edge).lat.value(),
                bottleneck.min(residual.bw(nb.edge).value()),
                visit,
            );
            edges.pop();
            on_path.pop();
        }
    }
    let mut on_path = vec![from];
    let mut edges = Vec::new();
    rec(
        phys,
        residual,
        from,
        to,
        &mut on_path,
        &mut edges,
        0.0,
        f64::INFINITY,
        visit,
    );
}

fn random_phys(n: usize, density: f64, seed: u64) -> (PhysicalTopology, ResidualState) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shape = random_connected(n, density, &mut rng);
    let mut g: Graph<PhysNode, LinkSpec> = Graph::new();
    for _ in 0..shape.node_count() {
        g.add_node(PhysNode::Host(HostSpec::new(
            Mips(1000.0),
            MemMb(1024),
            StorGb(100.0),
        )));
    }
    for e in shape.edges() {
        g.add_edge(
            e.a,
            e.b,
            LinkSpec::new(
                Kbps((rng.gen_range(1..=10) * 100) as f64),
                Millis(rng.gen_range(1..=5) as f64),
            ),
        );
    }
    let phys = PhysicalTopology::from_graph(g, VmmOverhead::NONE);
    let residual = ResidualState::new(&phys);
    (phys, residual)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn astar_prune_finds_the_widest_feasible_path(
        n in 3usize..8,
        density in 0.2f64..0.8,
        seed in any::<u64>(),
        demand_ix in 0usize..10,
        bound in 3.0f64..25.0,
    ) {
        let (phys, residual) = random_phys(n, density, seed);
        let from = phys.hosts()[0];
        let to = *phys.hosts().last().unwrap();
        prop_assume!(from != to);
        let demand = (demand_ix as f64 + 1.0) * 100.0;

        // Oracle: the best bottleneck among latency- and bandwidth-feasible
        // simple paths.
        let mut best: Option<f64> = None;
        enumerate_paths(&phys, &residual, from, to, &mut |edges, lat, bn| {
            if lat <= bound + 1e-9 && bn >= demand && !edges.is_empty() {
                best = Some(best.map_or(bn, |b: f64| b.max(bn)));
            }
        });

        let ar: Vec<f64> = dijkstra(phys.graph(), to, |_, l| l.lat.value())
            .distances()
            .to_vec();
        let found = astar_prune(
            &phys,
            &residual,
            from,
            to,
            Kbps(demand),
            Millis(bound),
            &ar,
            &AStarPruneConfig::default(),
            &mut RouteScratch::new(),
        );

        match (best, found) {
            (None, None) => {} // agree: infeasible
            (Some(oracle_bn), Some((edges, _))) => {
                // A*Prune's path must be feasible and its bottleneck equal
                // to the oracle's optimum.
                let lat: f64 = edges.iter().map(|&e| phys.link(e).lat.value()).sum();
                prop_assert!(lat <= bound + 1e-9);
                let bn = edges
                    .iter()
                    .map(|&e| residual.bw(e).value())
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(bn >= demand);
                prop_assert!(
                    (bn - oracle_bn).abs() < 1e-9,
                    "A*Prune bottleneck {bn} != oracle optimum {oracle_bn}"
                );
            }
            (Some(bn), None) => prop_assert!(false, "A*Prune missed a feasible path (bn {bn})"),
            (None, Some(_)) => prop_assert!(false, "A*Prune invented an infeasible path"),
        }
    }
}
