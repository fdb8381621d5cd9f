//! Breadth-first and depth-first traversal and path search.
//!
//! The paper's Random (R) and Hosting+Search (HS) baselines route virtual
//! links with a depth-first search; [`dfs_path_filtered`] is the generic
//! engine they build on — it finds *some* simple path whose edges all pass a
//! caller predicate, with no optimality guarantee (that is exactly the
//! baselines' weakness that A*Prune fixes).

use crate::{EdgeId, Graph, NodeId};
use std::collections::VecDeque;

/// Nodes in breadth-first order from `source` (including `source`).
pub fn bfs_order<N, E>(graph: &Graph<N, E>, source: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for nb in graph.neighbors(v) {
            if !seen[nb.node.index()] {
                seen[nb.node.index()] = true;
                queue.push_back(nb.node);
            }
        }
    }
    order
}

/// Shortest path by hop count from `source` to `target`, as a node sequence,
/// or `None` if unreachable.
pub fn bfs_path<N, E>(graph: &Graph<N, E>, source: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
    let mut prev: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut seen = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        if v == target {
            let mut path = vec![target];
            let mut cur = target;
            while cur != source {
                let p = prev[cur.index()].expect("reached node has predecessor");
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for nb in graph.neighbors(v) {
            if !seen[nb.node.index()] {
                seen[nb.node.index()] = true;
                prev[nb.node.index()] = Some(v);
                queue.push_back(nb.node);
            }
        }
    }
    None
}

/// Nodes in depth-first (preorder) order from `source`.
pub fn dfs_order<N, E>(graph: &Graph<N, E>, source: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut stack = vec![source];
    while let Some(v) = stack.pop() {
        if seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        order.push(v);
        // Push in reverse so the first-listed neighbor is visited first,
        // matching the recursive formulation.
        for nb in graph.neighbors(v).iter().rev() {
            if !seen[nb.node.index()] {
                stack.push(nb.node);
            }
        }
    }
    order
}

/// Depth-first search for a *simple* path from `source` to `target` using
/// only edges for which `edge_ok(edge, cumulative_cost_so_far)` returns
/// `Some(step_cost)`, subject to total cost ≤ `budget`.
///
/// * `edge_ok` returns `None` to veto an edge outright (e.g. insufficient
///   residual bandwidth), or `Some(cost)` with the cost this edge adds
///   (e.g. its latency).
/// * The path is simple: no node repeats (paper Eq. 7 forbids loops).
/// * Returns the edge sequence of the first path found in DFS order, with
///   its total cost — NOT the cheapest path. This mirrors the baselines in
///   the paper, which accept the first feasible path.
pub fn dfs_path_filtered<N, E, F>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    budget: f64,
    mut edge_ok: F,
) -> Option<(f64, Vec<EdgeId>)>
where
    F: FnMut(EdgeId, &E) -> Option<f64>,
{
    if source == target {
        return Some((0.0, Vec::new()));
    }
    // Iterative DFS with explicit path stack so deep topologies (a 2000-node
    // ring would recurse 2000 frames) cannot overflow the call stack.
    struct Frame {
        node: NodeId,
        next_neighbor: usize,
    }
    let mut on_path = vec![false; graph.node_count()];
    let mut cost_so_far = 0.0f64;
    let mut edge_stack: Vec<(EdgeId, f64)> = Vec::new();
    let mut frames = vec![Frame {
        node: source,
        next_neighbor: 0,
    }];
    on_path[source.index()] = true;

    while let Some(frame) = frames.last_mut() {
        let v = frame.node;
        let neighbors = graph.neighbors(v);
        let mut advanced = false;
        while frame.next_neighbor < neighbors.len() {
            let nb = neighbors[frame.next_neighbor];
            frame.next_neighbor += 1;
            if on_path[nb.node.index()] {
                continue;
            }
            let Some(step) = edge_ok(nb.edge, graph.edge(nb.edge)) else {
                continue;
            };
            if cost_so_far + step > budget {
                continue;
            }
            // Take the edge.
            cost_so_far += step;
            edge_stack.push((nb.edge, step));
            if nb.node == target {
                let total = cost_so_far;
                return Some((total, edge_stack.into_iter().map(|(e, _)| e).collect()));
            }
            on_path[nb.node.index()] = true;
            frames.push(Frame {
                node: nb.node,
                next_neighbor: 0,
            });
            advanced = true;
            break;
        }
        if !advanced {
            // Backtrack.
            let done = frames.pop().expect("frame exists");
            on_path[done.node.index()] = false;
            if let Some((_, step)) = edge_stack.pop() {
                cost_so_far -= step;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path_graph(n: usize) -> (Graph<(), f64>, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1.0);
        }
        (g, ids)
    }

    #[test]
    fn bfs_order_visits_everything_once() {
        let (g, ids) = path_graph(5);
        let order = bfs_order(&g, ids[2]);
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], ids[2]);
    }

    #[test]
    fn bfs_path_is_shortest_in_hops() {
        let mut g: Graph<(), ()> = Graph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1], ());
        g.add_edge(ids[1], ids[3], ());
        g.add_edge(ids[0], ids[2], ());
        g.add_edge(ids[2], ids[3], ());
        g.add_edge(ids[0], ids[3], ()); // direct edge
        let p = bfs_path(&g, ids[0], ids[3]).unwrap();
        assert_eq!(p, vec![ids[0], ids[3]]);
    }

    #[test]
    fn bfs_path_none_when_disconnected() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        assert!(bfs_path(&g, a, b).is_none());
    }

    #[test]
    fn dfs_order_covers_component() {
        let (g, ids) = path_graph(6);
        let order = dfs_order(&g, ids[0]);
        assert_eq!(order, ids);
    }

    #[test]
    fn dfs_path_respects_budget() {
        let (g, ids) = path_graph(5); // 4 unit-cost hops end to end
        let found = dfs_path_filtered(&g, ids[0], ids[4], 4.0, |_, w| Some(*w));
        assert!(found.is_some());
        let (cost, edges) = found.unwrap();
        assert_eq!(cost, 4.0);
        assert_eq!(edges.len(), 4);
        assert!(dfs_path_filtered(&g, ids[0], ids[4], 3.9, |_, w| Some(*w)).is_none());
    }

    #[test]
    fn dfs_path_respects_edge_veto() {
        let mut g: Graph<(), f64> = Graph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        let blocked = g.add_edge(ids[0], ids[3], 1.0);
        g.add_edge(ids[0], ids[1], 1.0);
        g.add_edge(ids[1], ids[2], 1.0);
        g.add_edge(ids[2], ids[3], 1.0);
        let (cost, edges) = dfs_path_filtered(&g, ids[0], ids[3], 100.0, |e, w| {
            (e != blocked).then_some(*w)
        })
        .unwrap();
        assert_eq!(edges.len(), 3);
        assert_eq!(cost, 3.0);
        assert!(!edges.contains(&blocked));
    }

    #[test]
    fn dfs_path_is_simple() {
        // Diamond with a tempting cycle; ensure no node repeats.
        let mut g: Graph<(), f64> = Graph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        for &(a, b) in &[(0, 1), (1, 2), (2, 0), (2, 3)] {
            g.add_edge(ids[a], ids[b], 1.0);
        }
        let (_, edges) = dfs_path_filtered(&g, ids[0], ids[3], 10.0, |_, w| Some(*w)).unwrap();
        let mut visited = vec![ids[0]];
        let mut cur = ids[0];
        for e in edges {
            let r = g.edge_ref(e);
            cur = r.other(cur);
            assert!(!visited.contains(&cur), "path revisits {cur}");
            visited.push(cur);
        }
        assert_eq!(cur, ids[3]);
    }

    #[test]
    fn dfs_path_trivial_when_source_is_target() {
        let (g, ids) = path_graph(2);
        let (cost, edges) = dfs_path_filtered(&g, ids[0], ids[0], 0.0, |_, w| Some(*w)).unwrap();
        assert_eq!(cost, 0.0);
        assert!(edges.is_empty());
    }

    #[test]
    fn dfs_path_survives_deep_graphs() {
        // A 50_000-node path would overflow a recursive DFS; the iterative
        // implementation must handle it.
        let (g, ids) = path_graph(20_000);
        let found = dfs_path_filtered(&g, ids[0], ids[19_999], f64::INFINITY, |_, w| Some(*w));
        assert_eq!(found.unwrap().1.len(), 19_999);
    }
}
