//! The exhaustive A\*Prune search the Pareto-label search must reproduce:
//! every loop-free partial path that passes the bandwidth and `ar[]`
//! tests is kept, and a loop is rejected by walking the parent chain.
//! Same keys, tie-breaks and expansion cap as `astar_prune`, so the two
//! must return the same path whenever this one stays under the cap.
//!
//! Shared by the unit tests of `astar_prune.rs` and by
//! `tests/routing_equivalence.rs`; the including module must have
//! `AStarPruneConfig` and `PathMetric` in scope.

use super::{AStarPruneConfig, PathMetric};
use emumap_graph::{EdgeId, NodeId};
use emumap_model::{Kbps, Millis, PhysicalTopology, ResidualState};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What the exhaustive search concluded.
#[derive(Clone, Debug, PartialEq)]
pub enum Exhaustive {
    /// The winning path's edges.
    Path(Vec<EdgeId>),
    /// No feasible path exists.
    NoPath,
    /// The search popped more than `max_expansions` partial paths.
    Capped,
}

struct Entry {
    key: [f64; 4],
    index: usize,
    bottleneck: f64,
    latency: f64,
    hops: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .iter()
            .zip(&other.key)
            .map(|(a, b)| a.total_cmp(b))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }
}

fn key(metric: PathMetric, bottleneck: f64, latency: f64, hops: u32, seq: u64) -> [f64; 4] {
    match metric {
        PathMetric::BottleneckBandwidth => [bottleneck, -latency, -f64::from(hops), -(seq as f64)],
        PathMetric::HopCount => [-f64::from(hops), bottleneck, -latency, -(seq as f64)],
    }
}

/// The search with `astar_prune`'s signature (less the scratch), and the
/// number of partial paths it popped.
#[allow(clippy::too_many_arguments)]
pub fn exhaustive_astar_prune(
    phys: &PhysicalTopology,
    residual: &ResidualState,
    origin: NodeId,
    destination: NodeId,
    demand: Kbps,
    latency_bound: Millis,
    ar: &[f64],
    config: &AStarPruneConfig,
) -> (Exhaustive, usize) {
    if origin == destination {
        return (Exhaustive::Path(Vec::new()), 0);
    }
    let (bound, want) = (latency_bound.value(), demand.value());
    if config.use_latency_lower_bound && ar[origin.index()] > bound {
        return (Exhaustive::NoPath, 0);
    }
    // Arena of (parent, edge from the parent, end node).
    let mut arena: Vec<(Option<usize>, Option<EdgeId>, NodeId)> = vec![(None, None, origin)];
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    heap.push(Entry {
        key: key(config.metric, f64::INFINITY, 0.0, 0, seq),
        index: 0,
        bottleneck: f64::INFINITY,
        latency: 0.0,
        hops: 0,
    });
    let mut expanded = 0;
    while let Some(best) = heap.pop() {
        expanded += 1;
        if expanded > config.max_expansions {
            return (Exhaustive::Capped, expanded);
        }
        let mut path_nodes = Vec::new();
        let mut edges = Vec::new();
        let mut cur = Some(best.index);
        while let Some(i) = cur {
            let (parent, edge, end) = arena[i];
            path_nodes.push(end);
            edges.extend(edge);
            cur = parent;
        }
        let d = arena[best.index].2;
        if d == destination {
            edges.reverse();
            return (Exhaustive::Path(edges), expanded);
        }
        for nb in phys.graph().neighbors(d) {
            let h = nb.node;
            if path_nodes.contains(&h) {
                continue;
            }
            let avail = residual.bw(nb.edge).value();
            if avail < want {
                continue;
            }
            let acc = best.latency + phys.link(nb.edge).lat.value();
            let optimistic = if config.use_latency_lower_bound {
                ar[h.index()]
            } else {
                0.0
            };
            if acc + optimistic > bound + 1e-9 {
                continue;
            }
            let bottleneck = best.bottleneck.min(avail);
            let hops = best.hops + 1;
            arena.push((Some(best.index), Some(nb.edge), h));
            seq += 1;
            heap.push(Entry {
                key: key(config.metric, bottleneck, acc, hops, seq),
                index: arena.len() - 1,
                bottleneck,
                latency: acc,
                hops,
            });
        }
    }
    (Exhaustive::NoPath, expanded)
}
