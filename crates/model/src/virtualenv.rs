//! The virtual environment: the distributed system the tester wants to
//! emulate (paper §3.1–3.2, graph `v = (V, E_v)`).

use crate::resources::{check_links, Kbps, MemMb, Millis, Mips};
use crate::StorGb;
use emumap_graph::{EdgeId, Graph, NodeId};
use serde::{Deserialize, Serialize};

/// Resource demands of one guest (virtual machine).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GuestSpec {
    /// CPU demand (`vproc`). Not a hard constraint — it is the quantity the
    /// objective function balances.
    pub proc: Mips,
    /// Memory demand (`vmem`) — hard constraint (Eq. 2).
    pub mem: MemMb,
    /// Storage demand (`vstor`) — hard constraint (Eq. 3).
    pub stor: StorGb,
}

impl GuestSpec {
    /// A guest with the given demands.
    pub fn new(proc: Mips, mem: MemMb, stor: StorGb) -> Self {
        GuestSpec { proc, mem, stor }
    }
}

/// Demands of one virtual link.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct VLinkSpec {
    /// Bandwidth demand (`vbw`) — hard constraint per physical link (Eq. 9).
    pub bw: Kbps,
    /// Latency bound (`vlat`) — hard constraint per path (Eq. 8).
    pub lat: Millis,
}

impl VLinkSpec {
    /// A virtual link with the given demands.
    pub fn new(bw: Kbps, lat: Millis) -> Self {
        VLinkSpec { bw, lat }
    }
}

/// Handle to a guest. Guests are nodes of the virtual-environment graph;
/// the alias documents which graph an id belongs to.
pub type GuestId = NodeId;

/// Handle to a virtual link.
pub type VLinkId = EdgeId;

/// The virtual environment `v = (V, E_v)`: guests and the virtual links
/// between them.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct VirtualEnvironment {
    graph: Graph<GuestSpec, VLinkSpec>,
}

/// Rejects a virtual link with a negative or NaN latency bound or a
/// negative or non-finite bandwidth demand.
impl Deserialize for VirtualEnvironment {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let pairs = value.expect_object("VirtualEnvironment")?;
        let graph: Graph<GuestSpec, VLinkSpec> =
            serde::__field(pairs, "graph", "VirtualEnvironment")?;
        check_links(
            "VirtualEnvironment",
            graph.edges().map(|e| (e.weight.bw, e.weight.lat)),
        )?;
        Ok(VirtualEnvironment { graph })
    }
}

impl VirtualEnvironment {
    /// An empty virtual environment.
    pub fn new() -> Self {
        Self::from_graph(Graph::new())
    }

    /// Wraps an already-built guest/link graph.
    pub fn from_graph(graph: Graph<GuestSpec, VLinkSpec>) -> Self {
        VirtualEnvironment { graph }
    }

    /// Adds a guest; returns its id.
    pub fn add_guest(&mut self, spec: GuestSpec) -> GuestId {
        self.graph.add_node(spec)
    }

    /// Adds a virtual link between two guests; returns its id.
    pub fn add_link(&mut self, a: GuestId, b: GuestId, spec: VLinkSpec) -> VLinkId {
        self.graph.add_edge(a, b, spec)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph<GuestSpec, VLinkSpec> {
        &self.graph
    }

    /// Number of guests (`m` in the paper).
    pub fn guest_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of virtual links.
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Demands of a guest.
    pub fn guest(&self, id: GuestId) -> &GuestSpec {
        self.graph.node(id)
    }

    /// Demands of a virtual link.
    pub fn link(&self, id: VLinkId) -> &VLinkSpec {
        self.graph.edge(id)
    }

    /// The two guests joined by a virtual link.
    pub fn link_endpoints(&self, id: VLinkId) -> (GuestId, GuestId) {
        self.graph.endpoints(id)
    }

    /// Iterator over guest ids.
    pub fn guest_ids(&self) -> impl ExactSizeIterator<Item = GuestId> + Clone {
        self.graph.node_ids()
    }

    /// Iterator over virtual-link ids.
    pub fn link_ids(&self) -> impl ExactSizeIterator<Item = VLinkId> + Clone {
        self.graph.edge_ids()
    }

    /// Total bandwidth a guest demands toward a specific set of co-located
    /// peers is computed in the mapping layer; this helper gives the total
    /// bandwidth on all links incident to `guest` (used to order migration
    /// candidates and in tests).
    pub fn incident_bandwidth(&self, guest: GuestId) -> Kbps {
        self.graph
            .neighbors(guest)
            .iter()
            .map(|nb| self.graph.edge(nb.edge).bw)
            .sum()
    }

    /// Aggregate CPU demand of all guests; harness sanity checks.
    pub fn total_proc_demand(&self) -> Mips {
        self.graph.nodes().map(|(_, g)| g.proc).sum()
    }

    /// Aggregate memory demand of all guests.
    pub fn total_mem_demand(&self) -> MemMb {
        self.graph.nodes().map(|(_, g)| g.mem).sum()
    }
}

impl Default for VirtualEnvironment {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_guest() -> GuestSpec {
        GuestSpec::new(Mips(75.0), MemMb(192), StorGb(150.0))
    }

    fn small_link() -> VLinkSpec {
        VLinkSpec::new(Kbps(750.0), Millis(45.0))
    }

    #[test]
    fn build_and_query() {
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(small_guest());
        let b = venv.add_guest(small_guest());
        let l = venv.add_link(a, b, small_link());
        assert_eq!(venv.guest_count(), 2);
        assert_eq!(venv.link_count(), 1);
        assert_eq!(venv.guest(a).mem, MemMb(192));
        assert_eq!(venv.link(l).bw, Kbps(750.0));
        assert_eq!(venv.link_endpoints(l), (a, b));
    }

    #[test]
    fn incident_bandwidth_sums_all_links() {
        let mut venv = VirtualEnvironment::new();
        let a = venv.add_guest(small_guest());
        let b = venv.add_guest(small_guest());
        let c = venv.add_guest(small_guest());
        venv.add_link(a, b, VLinkSpec::new(Kbps(100.0), Millis(40.0)));
        venv.add_link(a, c, VLinkSpec::new(Kbps(250.0), Millis(40.0)));
        venv.add_link(b, c, VLinkSpec::new(Kbps(999.0), Millis(40.0)));
        assert_eq!(venv.incident_bandwidth(a), Kbps(350.0));
        assert_eq!(venv.incident_bandwidth(b), Kbps(1099.0));
    }

    #[test]
    fn totals() {
        let mut venv = VirtualEnvironment::new();
        venv.add_guest(GuestSpec::new(Mips(50.0), MemMb(128), StorGb(100.0)));
        venv.add_guest(GuestSpec::new(Mips(100.0), MemMb(256), StorGb(200.0)));
        assert_eq!(venv.total_proc_demand(), Mips(150.0));
        assert_eq!(venv.total_mem_demand(), MemMb(384));
    }

    #[test]
    fn default_is_empty() {
        let venv = VirtualEnvironment::default();
        assert_eq!(venv.guest_count(), 0);
        assert_eq!(venv.link_count(), 0);
    }
}
