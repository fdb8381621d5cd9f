//! Pins the exact mappings HMN produces on two paper-scale draws: every
//! guest's host and every link's route. A fingerprint changes if any
//! placement decision or any A\*Prune route moves, so an optimization of
//! the route search (or of anything before it) that is meant to leave the
//! mappings alone is checked end to end here.

use emumap::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a over the placement (host per guest), then every route (its
/// length, then its edges) in link order.
fn fingerprint(mapping: &Mapping) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    mix(mapping.placement().len() as u64);
    for host in mapping.placement() {
        mix(host.index() as u64);
    }
    mix(mapping.routes().len() as u64);
    for route in mapping.routes() {
        mix(route.hop_count() as u64);
        for e in route.edges() {
            mix(e.index() as u64);
        }
    }
    h
}

/// HMN's mapping of the seed-1 draw of `venv` on the seed-1 paper cluster
/// of `topology`.
fn hmn_fingerprint(topology: ClusterTopology, venv: VirtualEnvSpec) -> u64 {
    let phys = ClusterSpec::paper().build(topology, &mut SmallRng::seed_from_u64(1));
    let venv = venv.generate(&mut SmallRng::seed_from_u64(1));
    let out = Hmn::new()
        .map(&phys, &venv, &mut SmallRng::seed_from_u64(1))
        .expect("HMN maps the draw");
    assert_eq!(validate_mapping(&phys, &venv, &out.mapping), Ok(()));
    fingerprint(&out.mapping)
}

#[test]
fn hmn_torus_low_level_1600_mapping_is_pinned() {
    let fp = hmn_fingerprint(
        ClusterSpec::paper_torus(),
        VirtualEnvSpec::low_level(1600, 0.01),
    );
    assert_eq!(fp, 2_882_307_332_494_383_503);
}

#[test]
fn hmn_switched_high_level_300_mapping_is_pinned() {
    let fp = hmn_fingerprint(
        ClusterSpec::paper_switched(),
        VirtualEnvSpec::high_level(300, 0.025),
    );
    assert_eq!(fp, 5_089_203_798_056_284_911);
}
