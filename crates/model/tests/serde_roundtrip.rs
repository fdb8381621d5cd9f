//! Wire-format stability: every model type the CLI reads/writes must
//! survive a JSON round trip (the CLI contract), including the
//! infinite-bandwidth sentinel used for intra-host links.

use emumap_model::{
    GuestSpec, HostSpec, Kbps, LinkSpec, Mapping, MemMb, Millis, Mips, PhysicalTopology, Route,
    StorGb, VLinkSpec, VirtualEnvironment, VmmOverhead,
};
use emumap_workloads::{ClusterSpec, VirtualEnvSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn roundtrip<T: serde::Serialize + serde::de::DeserializeOwned>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

/// A graph is written as nodes and edges only: the adjacency is derived
/// on load, and the reloaded one lists every node's neighbors in the same
/// order.
fn assert_adjacency_derived<N, E>(
    json: &str,
    graph: &emumap_graph::Graph<N, E>,
    back: &emumap_graph::Graph<N, E>,
) {
    assert!(!json.contains("adjacency"), "adjacency was serialized");
    for v in graph.node_ids() {
        assert_eq!(graph.neighbors(v), back.neighbors(v));
    }
}

#[test]
fn physical_topology_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(1);
    for topo in [ClusterSpec::paper_torus(), ClusterSpec::paper_switched()] {
        let phys = ClusterSpec::paper().build(topo, &mut rng);
        let json = serde_json::to_string(&phys).expect("serialize");
        let back: PhysicalTopology = serde_json::from_str(&json).expect("deserialize");
        assert_adjacency_derived(&json, phys.graph(), back.graph());
        assert_eq!(back.host_count(), phys.host_count());
        assert_eq!(back.graph().node_count(), phys.graph().node_count());
        assert_eq!(back.graph().edge_count(), phys.graph().edge_count());
        for (&a, &b) in phys.hosts().iter().zip(back.hosts()) {
            assert_eq!(a, b);
            assert_eq!(phys.host_spec(a), back.host_spec(b));
        }
        for e in phys.graph().edge_ids() {
            assert_eq!(phys.link(e), back.link(e));
            assert_eq!(phys.graph().endpoints(e), back.graph().endpoints(e));
        }
        assert_eq!(phys.vmm_overhead(), back.vmm_overhead());
    }
}

#[test]
fn virtual_environment_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(2);
    let venv = VirtualEnvSpec::high_level(60, 0.05).generate(&mut rng);
    let json = serde_json::to_string(&venv).expect("serialize");
    let back: VirtualEnvironment = serde_json::from_str(&json).expect("deserialize");
    assert_adjacency_derived(&json, venv.graph(), back.graph());
    assert_eq!(back.guest_count(), venv.guest_count());
    assert_eq!(back.link_count(), venv.link_count());
    for g in venv.guest_ids() {
        assert_eq!(venv.guest(g), back.guest(g));
    }
    for l in venv.link_ids() {
        assert_eq!(venv.link(l), back.link(l));
        assert_eq!(venv.link_endpoints(l), back.link_endpoints(l));
    }
}

#[test]
fn mapping_roundtrips_including_intra_host_routes() {
    let mut rng = SmallRng::seed_from_u64(3);
    let phys = ClusterSpec::paper().build(ClusterSpec::paper_torus(), &mut rng);
    let e: Vec<_> = phys.graph().edge_ids().collect();
    let mapping = Mapping::new(
        vec![phys.hosts()[0], phys.hosts()[1], phys.hosts()[0]],
        vec![Route::intra_host(), Route::new(vec![e[0], e[1]])],
    );
    let back: Mapping = roundtrip(&mapping);
    assert_eq!(back, mapping);
    assert!(back
        .route_of(emumap_graph::EdgeId::from_index(0))
        .is_intra_host());
}

#[test]
fn infinite_bandwidth_survives_json() {
    // serde_json serializes non-finite f64 as null; make the behaviour
    // explicit so the CLI contract is known: Kbps(INFINITY) must not
    // silently become a finite number.
    let spec = LinkSpec::new(Kbps::INFINITE, Millis(0.0));
    let json = serde_json::to_string(&spec).expect("serialize");
    let back: Result<LinkSpec, _> = serde_json::from_str(&json);
    match back {
        Ok(spec) => assert!(!spec.bw.is_finite(), "json was {json}"),
        Err(_) => assert!(json.contains("null"), "json was {json}"),
    }
}

proptest! {
    #[test]
    fn specs_roundtrip(proc in 0.0f64..1e6, mem in 0u64..1_000_000, stor in 0.0f64..1e6,
                       bw in 0.0f64..1e9, lat in 0.0f64..1e4) {
        let h = HostSpec::new(Mips(proc), MemMb(mem), StorGb(stor));
        prop_assert_eq!(roundtrip(&h), h);
        let g = GuestSpec::new(Mips(proc), MemMb(mem), StorGb(stor));
        prop_assert_eq!(roundtrip(&g), g);
        let l = LinkSpec::new(Kbps(bw), Millis(lat));
        prop_assert_eq!(roundtrip(&l), l);
        let v = VLinkSpec::new(Kbps(bw), Millis(lat));
        prop_assert_eq!(roundtrip(&v), v);
        let o = VmmOverhead { proc: Mips(proc), mem: MemMb(mem), stor: StorGb(stor) };
        prop_assert_eq!(roundtrip(&o), o);
    }
}
