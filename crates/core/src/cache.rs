//! Reusable per-worker caches for the routing hot paths.
//!
//! §5.2 of the paper observes that "most part of mapping time is spend in
//! the Networking stage to calculate the shortest path of each host to the
//! link destination". The per-`networking_stage` `HashMap` cache already
//! collapses that to one Dijkstra per distinct destination *per trial* —
//! but a benchmark sweep runs hundreds of trials on the *same* topology,
//! and the `ar[]` tables depend only on link latencies, never on residual
//! bandwidth or the virtual environment. [`ArTables`] promotes the cache
//! to topology lifetime: tables survive across trials and are invalidated
//! only when the topology fingerprint (node count, edge endpoints, latency
//! bit patterns) changes.
//!
//! [`MapCache`] bundles the table cache with the search scratch buffers
//! ([`RouteScratch`], [`DfsScratch`]) into the one state blob a worker
//! thread owns. Apart from the [`Tracer`] (a passive observer), everything
//! here is a pure cache: any sequence of mapper calls produces
//! bit-identical results with a fresh cache, a warm cache, or a cache
//! previously used on a different topology — and the *decision* stream of
//! trace events is equally cache-independent (see `emumap_trace`).

use crate::astar_prune::RouteScratch;
use crate::dfs_routing::DfsScratch;
use emumap_graph::algo::dijkstra;
use emumap_graph::{CsrAdjacency, NodeId};
use emumap_model::{GuestId, PhysicalTopology};
use emumap_trace::Tracer;
use std::collections::HashMap;

/// FNV-1a over the topology features the cached tables depend on.
fn topology_fingerprint(phys: &PhysicalTopology) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    let graph = phys.graph();
    mix(graph.node_count() as u64);
    for e in graph.edge_ids() {
        let (a, b) = graph.endpoints(e);
        mix(a.index() as u64);
        mix(b.index() as u64);
        mix(phys.link(e).lat.value().to_bits());
    }
    h
}

/// Topology-lifetime cache of per-destination Dijkstra tables.
///
/// Two table families are kept:
///
/// * `ar` — latency-to-destination (the admissible `ar[]` lower bound of
///   the paper's Algorithm 1), used by A\*Prune and the KSP early-exit;
/// * `hops` — unit-cost hop counts, used to bias the naive DFS router of
///   the R / RA / HS baselines.
///
/// Both depend only on the topology (latencies / connectivity), so they are
/// keyed by a fingerprint and survive across trials, mappers, and virtual
/// environments on the same cluster.
#[derive(Debug, Default)]
pub struct ArTables {
    /// Generation of the topology the tables were built for (0 = unset).
    /// Matching this is the O(1) fast path of [`prepare`](Self::prepare);
    /// the content fingerprint below is the O(E) fallback that still
    /// keeps tables when an identical topology arrives under a new
    /// generation (e.g. a re-deserialized file).
    generation: u64,
    fingerprint: u64,
    prepared: bool,
    ar: HashMap<NodeId, Vec<f64>>,
    hops: HashMap<NodeId, Vec<f64>>,
    ar_runs: usize,
    hop_runs: usize,
    hits: usize,
}

impl ArTables {
    /// Empty cache; first [`prepare`](Self::prepare) binds it to a topology.
    pub fn new() -> Self {
        ArTables::default()
    }

    /// Binds the cache to `phys`, dropping all tables if the topology
    /// changed since the last call. Returns `true` when the cached tables
    /// were kept (same topology).
    pub fn prepare(&mut self, phys: &PhysicalTopology) -> bool {
        // O(1) fast path: same topology value (or a clone of it) as last
        // time. Every trial of a benchmark sweep after the first takes
        // this branch instead of re-hashing all edges.
        if self.prepared && phys.generation() == self.generation {
            return true;
        }
        let fp = topology_fingerprint(phys);
        if self.prepared && fp == self.fingerprint {
            // Different value, identical content (e.g. re-parsed JSON):
            // keep the tables and adopt the new generation.
            self.generation = phys.generation();
            return true;
        }
        self.generation = phys.generation();
        self.fingerprint = fp;
        self.prepared = true;
        self.ar.clear();
        self.hops.clear();
        false
    }

    /// The latency `ar[]` table rooted at `dest`, together with the
    /// topology's adjacency (the two inputs of
    /// [`astar_prune`](crate::astar_prune)).
    ///
    /// Must be called after [`prepare`](Self::prepare) on the same `phys`.
    pub fn ar_and_csr<'a>(
        &'a mut self,
        phys: &'a PhysicalTopology,
        dest: NodeId,
    ) -> (&'a [f64], &'a CsrAdjacency) {
        debug_assert!(self.prepared, "call ArTables::prepare first");
        if !self.ar.contains_key(&dest) {
            self.ar_runs += 1;
            let table = dijkstra(phys.graph(), dest, |_, link| link.lat.value())
                .distances()
                .to_vec();
            self.ar.insert(dest, table);
        } else {
            self.hits += 1;
        }
        (
            self.ar.get(&dest).expect("just inserted"),
            phys.graph().csr(),
        )
    }

    /// Unit-cost hop-count table rooted at `dest` (the DFS neighbor-order
    /// bias of the baselines). Same caching discipline as
    /// [`ar_and_csr`](Self::ar_and_csr).
    pub fn hops(&mut self, phys: &PhysicalTopology, dest: NodeId) -> &[f64] {
        debug_assert!(self.prepared, "call ArTables::prepare first");
        if !self.hops.contains_key(&dest) {
            self.hop_runs += 1;
            let table = dijkstra(phys.graph(), dest, |_, _| 1.0)
                .distances()
                .to_vec();
            self.hops.insert(dest, table);
        } else {
            self.hits += 1;
        }
        self.hops.get(&dest).expect("just inserted")
    }

    /// Total Dijkstra runs since construction (both table families).
    pub fn dijkstra_runs(&self) -> usize {
        self.ar_runs + self.hop_runs
    }

    /// Hop-count table runs since construction (a subset of
    /// [`dijkstra_runs`](Self::dijkstra_runs)).
    pub fn hop_tables(&self) -> usize {
        self.hop_runs
    }

    /// Table lookups answered from cache since construction.
    pub fn hits(&self) -> usize {
        self.hits
    }
}

/// Reusable buffers for the annealer's search loop: the host list the
/// proposal sampler indexes, the best-placement snapshot, and the
/// displaced-guest list of the final restore. With these owned by the
/// [`MapCache`], the steady-state annealing loop performs no allocations
/// at all — proposals are evaluated as accumulator deltas and the only
/// vectors involved are these, refilled in place.
#[derive(Debug, Default)]
pub struct AnnealScratch {
    /// Host ids in `phys.hosts()` order (proposal sampling).
    pub(crate) hosts: Vec<NodeId>,
    /// Best placement visited, dense by guest index.
    pub(crate) best: Vec<NodeId>,
    /// Guests whose final host differs from the best snapshot (restore).
    pub(crate) displaced: Vec<GuestId>,
    warm: bool,
    reuses: usize,
}

impl AnnealScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        AnnealScratch::default()
    }

    /// Annealing runs that started on already-warm buffers (every use
    /// after the first). Counted in `PhaseCounters::scratch_reuses`.
    pub fn reuses(&self) -> usize {
        self.reuses
    }

    /// Clears the buffers for a new run, keeping their capacity.
    pub(crate) fn begin(&mut self) {
        if self.warm {
            self.reuses += 1;
        }
        self.warm = true;
        self.hosts.clear();
        self.best.clear();
        self.displaced.clear();
    }
}

/// Reusable buffers for the randomized-rounding mapper's fractional
/// solve + rounding loop. The big flat buffers (the guests × hosts
/// distribution matrix, price and load vectors, the per-iteration cost
/// row) keep their capacity across runs so the steady-state LP loop
/// allocates only inside Dijkstra table builds — the same discipline as
/// [`ArTables`].
#[derive(Debug, Default)]
pub struct RoundingScratch {
    /// The fractional placement `x[g][h]` under refinement.
    pub(crate) frac: emumap_model::FractionalPlacement,
    /// Expected per-host resource loads induced by `frac`.
    pub(crate) loads: emumap_model::ExpectedLoads,
    /// Multiplicative-weights congestion price per host (dense host index).
    pub(crate) host_prices: Vec<f64>,
    /// Congestion price per physical edge (dense edge index).
    pub(crate) edge_prices: Vec<f64>,
    /// Expected bandwidth utilization per physical edge this iteration.
    pub(crate) edge_loads: Vec<f64>,
    /// Per-guest normalized worst-resource demand per host (guests × hosts).
    pub(crate) fit_cost: Vec<f64>,
    /// Current mode (argmax) host per guest, dense host index.
    pub(crate) modes: Vec<usize>,
    /// One cost row (hosts long), rebuilt per guest per iteration.
    pub(crate) cost_row: Vec<f64>,
    /// Priced-Dijkstra tables rooted at this iteration's mode hosts.
    pub(crate) priced: Vec<(NodeId, emumap_graph::algo::DijkstraResult)>,
    /// Sampled placement of the current rounding attempt, by guest index.
    pub(crate) sampled: Vec<NodeId>,
    warm: bool,
    reuses: usize,
}

impl RoundingScratch {
    /// Fresh, cold scratch.
    pub fn new() -> Self {
        RoundingScratch::default()
    }

    /// Rounding runs that started on already-warm buffers (every use
    /// after the first). Counted in `PhaseCounters::scratch_reuses`.
    pub fn reuses(&self) -> usize {
        self.reuses
    }

    /// Clears the buffers for a new run, keeping their capacity.
    pub(crate) fn begin(&mut self) {
        if self.warm {
            self.reuses += 1;
        }
        self.warm = true;
        self.host_prices.clear();
        self.edge_prices.clear();
        self.edge_loads.clear();
        self.fit_cost.clear();
        self.modes.clear();
        self.cost_row.clear();
        self.priced.clear();
        self.sampled.clear();
    }
}

/// Everything a worker reuses across mapper calls: topology tables plus
/// the A\*Prune and DFS scratch buffers.
///
/// Pass one per thread to [`Mapper::map_with_cache`](crate::Mapper::
/// map_with_cache); results are identical to the cache-free
/// [`Mapper::map`](crate::Mapper::map) for any cache history.
///
/// The epoch-parallel exact oracle leans on the same guarantee from the
/// other side: every worker owns a private `MapCache` (so the Lagrangian
/// multipliers it warm-starts from are exactly the ones handed to it per
/// subtree, never another worker's), and *because* caches are
/// semantically invisible the per-node results cannot depend on which
/// worker's cache computed them — one half of the engine's
/// thread-count-invariance argument (DESIGN.md §5.7).
#[derive(Debug, Default)]
pub struct MapCache {
    /// Cross-trial Dijkstra tables.
    pub topo: ArTables,
    /// A\*Prune arena/heap/on-path buffers.
    pub scratch: RouteScratch,
    /// Naive-DFS stack and visited buffers.
    pub dfs: DfsScratch,
    /// Annealing-loop buffers (host list, best placement, restore list).
    pub anneal: AnnealScratch,
    /// Randomized-rounding buffers (fractional matrix, prices, loads).
    pub rounding: RoundingScratch,
    /// Lagrangian-bound buffers (priced tables, multipliers, gradients)
    /// for the exact oracle.
    pub lagrangian: crate::lagrangian::LagrangianScratch,
    /// Structured-event tracer; disabled (zero-cost) by default. Attach a
    /// sink with [`Tracer::new`] to stream [`emumap_trace::TraceEvent`]s
    /// from every mapper run through this cache.
    pub trace: Tracer,
}

impl MapCache {
    /// Fresh, cold cache.
    pub fn new() -> Self {
        MapCache::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emumap_graph::generators;
    use emumap_model::{HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, StorGb, VmmOverhead};

    fn phys_line(n: usize, lat: f64) -> PhysicalTopology {
        PhysicalTopology::from_shape(
            &generators::line(n),
            std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(4096), StorGb(1000.0))),
            LinkSpec::new(Kbps(1000.0), Millis(lat)),
            VmmOverhead::NONE,
        )
    }

    #[test]
    fn tables_survive_repeated_prepare_on_same_topology() {
        let phys = phys_line(4, 5.0);
        let mut t = ArTables::new();
        assert!(!t.prepare(&phys), "first prepare is a rebuild");
        let dest = phys.hosts()[3];
        let (ar, _) = t.ar_and_csr(&phys, dest);
        assert_eq!(ar[phys.hosts()[0].index()], 15.0);
        assert_eq!(t.dijkstra_runs(), 1);

        assert!(t.prepare(&phys), "same topology keeps tables");
        let _ = t.ar_and_csr(&phys, dest);
        assert_eq!(t.dijkstra_runs(), 1, "second lookup is a hit");
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn equal_content_under_new_generation_keeps_tables() {
        let phys = phys_line(4, 5.0);
        let mut t = ArTables::new();
        t.prepare(&phys);
        let _ = t.ar_and_csr(&phys, phys.hosts()[3]);
        // Round-trip through JSON: same content, fresh generation.
        let json = serde_json::to_string(&phys).unwrap();
        let reparsed: PhysicalTopology = serde_json::from_str(&json).unwrap();
        assert_ne!(reparsed.generation(), phys.generation());
        assert!(t.prepare(&reparsed), "fingerprint fallback keeps tables");
        let _ = t.ar_and_csr(&reparsed, reparsed.hosts()[3]);
        assert_eq!(t.dijkstra_runs(), 1);
        // And the adopted generation now short-circuits.
        assert!(t.prepare(&reparsed));
    }

    #[test]
    fn topology_change_invalidates_tables() {
        let a = phys_line(4, 5.0);
        let b = phys_line(4, 7.0); // same shape, different latencies
        let mut t = ArTables::new();
        t.prepare(&a);
        let (ar, _) = t.ar_and_csr(&a, a.hosts()[3]);
        assert_eq!(ar[a.hosts()[0].index()], 15.0);
        assert!(!t.prepare(&b), "latency change must rebuild");
        let (ar, _) = t.ar_and_csr(&b, b.hosts()[3]);
        assert_eq!(ar[b.hosts()[0].index()], 21.0);
    }

    #[test]
    fn hop_tables_use_unit_costs() {
        let phys = phys_line(5, 3.0);
        let mut t = ArTables::new();
        t.prepare(&phys);
        let hops = t.hops(&phys, phys.hosts()[4]);
        assert_eq!(hops[phys.hosts()[0].index()], 4.0);
        assert_eq!(hops[phys.hosts()[4].index()], 0.0);
    }

    #[test]
    fn ar_and_hops_are_cached_independently() {
        let phys = phys_line(3, 5.0);
        let mut t = ArTables::new();
        t.prepare(&phys);
        let dest = phys.hosts()[2];
        let _ = t.ar_and_csr(&phys, dest);
        let _ = t.hops(&phys, dest);
        assert_eq!(t.dijkstra_runs(), 2, "latency and hop tables are distinct");
        assert_eq!(t.hop_tables(), 1);
        let _ = t.ar_and_csr(&phys, dest);
        let _ = t.hops(&phys, dest);
        assert_eq!(t.dijkstra_runs(), 2);
        assert_eq!(t.hits(), 2);
    }
}
