//! Pins the exact virtual environments the paper workloads draw from a
//! seed. A fingerprint covers every guest spec and every link (endpoints
//! in id order plus its spec), so the test fails if the generator's RNG
//! stream or its edge order moves — either would silently change every
//! mapping, benchmark row and golden derived from these draws.

use emumap_model::VirtualEnvironment;
use emumap_workloads::VirtualEnvSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a over the guest specs, then the links in id order.
fn fingerprint(venv: &VirtualEnvironment) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    mix(venv.guest_count() as u64);
    for g in venv.guest_ids() {
        let spec = venv.guest(g);
        mix(spec.proc.value().to_bits());
        mix(spec.mem.value());
        mix(spec.stor.value().to_bits());
    }
    mix(venv.link_count() as u64);
    for l in venv.link_ids() {
        let (a, b) = venv.link_endpoints(l);
        mix(a.index() as u64);
        mix(b.index() as u64);
        let spec = venv.link(l);
        mix(spec.bw.value().to_bits());
        mix(spec.lat.value().to_bits());
    }
    h
}

#[test]
fn low_level_2000_guest_draw_is_pinned() {
    let venv = VirtualEnvSpec::low_level(2000, 0.01).generate(&mut SmallRng::seed_from_u64(1));
    assert_eq!(venv.guest_count(), 2000);
    assert_eq!(fingerprint(&venv), 4_664_296_345_627_346_477);
}

#[test]
fn high_level_300_guest_draw_is_pinned() {
    let venv = VirtualEnvSpec::high_level(300, 0.025).generate(&mut SmallRng::seed_from_u64(1));
    assert_eq!(venv.guest_count(), 300);
    assert_eq!(fingerprint(&venv), 3_046_037_386_219_949_468);
}
