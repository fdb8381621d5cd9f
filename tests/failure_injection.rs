//! Failure-path tests: undersized or hostile inputs must produce typed
//! errors, never panics or invalid mappings.

use emumap::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn small_phys(hosts: usize, mem: u64, bw: f64, lat: f64) -> PhysicalTopology {
    PhysicalTopology::from_shape(
        &generators::ring(hosts.max(1)),
        std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(mem), StorGb(100.0))),
        LinkSpec::new(Kbps(bw), Millis(lat)),
        VmmOverhead::NONE,
    )
}

fn pair_venv(mem: u64, bw: f64, lat: f64) -> VirtualEnvironment {
    let mut v = VirtualEnvironment::new();
    let a = v.add_guest(GuestSpec::new(Mips(10.0), MemMb(mem), StorGb(1.0)));
    let b = v.add_guest(GuestSpec::new(Mips(10.0), MemMb(mem), StorGb(1.0)));
    v.add_link(a, b, VLinkSpec::new(Kbps(bw), Millis(lat)));
    v
}

fn all_mappers() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(Hmn::new()),
        Box::new(RandomDfs { max_attempts: 10 }),
        Box::new(RandomAStar {
            max_attempts: 10,
            ..Default::default()
        }),
        Box::new(HostingDfs { max_attempts: 10 }),
        Box::new(ConsolidatingHmn::default()),
    ]
}

#[test]
fn oversized_guests_fail_every_mapper_cleanly() {
    let phys = small_phys(4, 100, 1000.0, 5.0);
    let venv = pair_venv(500, 1.0, 100.0); // 500 MB guests on 100 MB hosts
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(1);
        let err = mapper
            .map(&phys, &venv, &mut rng)
            .err()
            .unwrap_or_else(|| panic!("{} should have failed", mapper.name()));
        assert!(
            matches!(
                err,
                MapError::HostingFailed { .. } | MapError::RetriesExhausted { .. }
            ),
            "{}: unexpected error {err}",
            mapper.name()
        );
    }
}

#[test]
fn unroutable_bandwidth_fails_every_mapper_cleanly() {
    // Guests cannot co-locate (memory) and the only links are too narrow.
    let phys = small_phys(4, 120, 10.0, 5.0);
    let venv = pair_venv(100, 500.0, 100.0);
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(2);
        let err = mapper
            .map(&phys, &venv, &mut rng)
            .err()
            .unwrap_or_else(|| panic!("{} should have failed", mapper.name()));
        assert!(
            matches!(
                err,
                MapError::NetworkingFailed { .. } | MapError::RetriesExhausted { .. }
            ),
            "{}: unexpected error {err}",
            mapper.name()
        );
    }
}

#[test]
fn impossible_latency_fails_cleanly() {
    // Latency bound below a single physical hop.
    let phys = small_phys(4, 120, 1000.0, 5.0);
    let venv = pair_venv(100, 1.0, 4.0);
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(
            mapper.map(&phys, &venv, &mut rng).is_err(),
            "{} should fail: no route can satisfy a 4 ms bound over 5 ms hops",
            mapper.name()
        );
    }
}

#[test]
fn empty_virtual_environment_maps_trivially() {
    let phys = small_phys(3, 1024, 1000.0, 5.0);
    let venv = VirtualEnvironment::new();
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(4);
        let out = mapper
            .map(&phys, &venv, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed on empty venv: {e}", mapper.name()));
        assert_eq!(out.mapping.guest_count(), 0);
        assert_eq!(validate_mapping(&phys, &venv, &out.mapping), Ok(()));
    }
}

#[test]
fn single_host_cluster_forces_colocation() {
    let phys = small_phys(1, 4096, 1000.0, 5.0);
    let venv = pair_venv(100, 1e9, 0.0); // impossible demands if routed
    for mapper in all_mappers() {
        let mut rng = SmallRng::seed_from_u64(5);
        let out = mapper
            .map(&phys, &venv, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed: {e}", mapper.name()));
        // Both guests share the only host; the absurd link demands are
        // absorbed intra-host (Eq. bw(c,c) = infinity).
        assert_eq!(out.mapping.hosts_used(), 1);
        assert_eq!(validate_mapping(&phys, &venv, &out.mapping), Ok(()));
    }
}

#[test]
fn vmm_overhead_shrinks_usable_capacity() {
    // With overhead eating most memory, a guest that fits the raw spec no
    // longer fits the effective capacity.
    let shape = generators::ring(3);
    let vmm = VmmOverhead {
        proc: Mips(100.0),
        mem: MemMb(900),
        stor: StorGb(0.0),
    };
    let phys = PhysicalTopology::from_shape(
        &shape,
        std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
        LinkSpec::new(Kbps(1000.0), Millis(5.0)),
        vmm,
    );
    let venv = pair_venv(200, 1.0, 100.0); // 200 MB > 1024-900 effective
    let mut rng = SmallRng::seed_from_u64(6);
    assert!(Hmn::new().map(&phys, &venv, &mut rng).is_err());

    // Without the overhead the same instance maps fine.
    let phys_free = PhysicalTopology::from_shape(
        &shape,
        std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
        LinkSpec::new(Kbps(1000.0), Millis(5.0)),
        VmmOverhead::NONE,
    );
    let mut rng = SmallRng::seed_from_u64(6);
    assert!(Hmn::new().map(&phys_free, &venv, &mut rng).is_ok());
}

#[test]
fn guests_never_land_on_switches() {
    let cluster = ClusterSpec::paper();
    let scenario = Scenario {
        ratio: 10.0,
        density: 0.015,
        workload: WorkloadKind::HighLevel,
    };
    let inst = instantiate(&cluster, ClusterSpec::paper_switched(), &scenario, 0, 7);
    let mut rng = SmallRng::seed_from_u64(inst.mapper_seed);
    if let Ok(out) = Hmn::new().map(&inst.phys, &inst.venv, &mut rng) {
        for &host in out.mapping.placement() {
            assert!(inst.phys.is_host(host));
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile instance files through the `emumap` CLI (`map` and `exact`)
// ---------------------------------------------------------------------------

/// Runs the `emumap` command line in-process. A panic (exit 101 from the
/// binary) fails the test; an error comes back as the binary prints it
/// before exiting 1.
fn cli(args: &[&str]) -> Result<Vec<String>, String> {
    let parsed = emumap_cli::Parsed::parse_with_aliases(args.iter().map(|a| a.to_string()))
        .expect("valid command line");
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| emumap_cli::run(&parsed)))
        .unwrap_or_else(|_| panic!("`emumap {}` panicked (exit 101)", args.join(" ")))
        .map_err(|e| e.to_string())
}

/// A fresh scratch directory for one test's files.
fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("emumap-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A 4-host ring and a 6-guest ring environment with two chords, every
/// guest and link a different size (a host holds two guests at most, so
/// which links get routed depends on co-location). Returns the phys file
/// path and the venv file's JSON value, as the CLI writes them.
fn ring_instance(dir: &std::path::Path) -> (String, serde::Value) {
    let phys = small_phys(4, 1024, 1000.0, 5.0);
    let mut venv = VirtualEnvironment::new();
    let g: Vec<_> = (0..6)
        .map(|i| {
            let proc = Mips(100.0 + 30.0 * f64::from(i));
            venv.add_guest(GuestSpec::new(proc, MemMb(400), StorGb(1.0)))
        })
        .collect();
    let links = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 0),
        (0, 3),
        (1, 4),
    ];
    for (i, (a, b)) in links.into_iter().enumerate() {
        let bw = Kbps(50.0 + 40.0 * i as f64);
        venv.add_link(g[a], g[b], VLinkSpec::new(bw, Millis(50.0)));
    }
    let phys_path = dir.join("phys.json");
    std::fs::write(&phys_path, serde_json::to_string_pretty(&phys).unwrap()).unwrap();
    let venv_value = serde_json::value_from_str(&serde_json::to_string(&venv).unwrap()).unwrap();
    (phys_path.to_str().unwrap().to_string(), venv_value)
}

/// The value under `key` of a JSON object.
fn field<'v>(value: &'v mut serde::Value, key: &str) -> &'v mut serde::Value {
    let serde::Value::Object(pairs) = value else {
        panic!("expected an object holding `{key}`")
    };
    let pair = pairs.iter_mut().find(|(k, _)| k == key);
    &mut pair.unwrap_or_else(|| panic!("no `{key}`")).1
}

/// Element `i` of a JSON array.
fn item(value: &mut serde::Value, i: usize) -> &mut serde::Value {
    let serde::Value::Array(items) = value else {
        panic!("expected an array")
    };
    &mut items[i]
}

/// Adds the `adjacency` key older versions wrote: per guest, the
/// `[neighbor, edge]` pairs of its links in edge order.
fn with_stored_adjacency(mut venv: serde::Value) -> serde::Value {
    let parsed: VirtualEnvironment =
        serde_json::from_str(&serde_json::to_string(&venv).unwrap()).expect("valid venv");
    let lists = parsed
        .guest_ids()
        .map(|g| {
            let pairs = parsed.graph().neighbors(g).iter();
            let pairs = pairs.map(|nb| {
                let ids = [nb.node.index(), nb.edge.index()];
                serde::Value::Array(ids.map(|i| serde::Value::I64(i as i64)).to_vec())
            });
            serde::Value::Array(pairs.collect())
        })
        .collect();
    let serde::Value::Object(graph) = field(&mut venv, "graph") else {
        panic!("venv.graph is an object")
    };
    graph.push(("adjacency".to_string(), serde::Value::Array(lists)));
    venv
}

/// Runs `map` and `exact` on `venv` and returns each one's mapping file.
fn map_and_exact(dir: &std::path::Path, phys: &str, venv: &serde::Value) -> Vec<String> {
    let venv_path = dir.join("venv.json");
    std::fs::write(&venv_path, serde_json::to_string_pretty(venv).unwrap()).unwrap();
    let venv_path = venv_path.to_str().unwrap();
    let out = dir.join("mapping.json");
    let out = out.to_str().unwrap();
    [["map", "--mapper", "hmn"], ["exact", "--max-nodes", "5000"]]
        .iter()
        .map(|cmd| {
            let mut args = cmd.to_vec();
            args.extend(["--phys", phys, "--venv", venv_path, "-o", out]);
            cli(&args).unwrap_or_else(|e| panic!("`emumap {}` failed: {e}", cmd[0]));
            std::fs::read_to_string(out).expect("mapping written")
        })
        .collect()
}

#[test]
fn out_of_range_venv_edge_endpoint_is_a_typed_cli_error() {
    let dir = scratch_dir("bad-endpoint");
    let (phys, mut venv) = ring_instance(&dir);
    let edges = field(field(&mut venv, "graph"), "edges");
    *field(item(edges, 2), "b") = serde::Value::I64(99);
    let venv_path = dir.join("venv.json");
    std::fs::write(&venv_path, serde_json::to_string_pretty(&venv).unwrap()).unwrap();
    let venv_path = venv_path.to_str().unwrap();
    for cmd in ["map", "exact"] {
        let err = cli(&[cmd, "--phys", &phys, "--venv", venv_path])
            .expect_err("an edge to a missing guest must be rejected");
        assert!(
            err.contains("graph: edges[2].b: node 99 out of range (6 nodes)"),
            "{cmd}: {err}"
        );
    }
}

#[test]
fn out_of_range_adjacency_entry_is_ignored_on_load() {
    let dir = scratch_dir("bad-adjacency");
    let (phys, venv) = ring_instance(&dir);
    let clean = map_and_exact(&dir, &phys, &venv);
    let mut old = with_stored_adjacency(venv);
    let adjacency = field(field(&mut old, "graph"), "adjacency");
    let serde::Value::Array(first) = item(adjacency, 0) else {
        panic!("an adjacency list is an array")
    };
    first.push(serde::Value::Array(vec![
        serde::Value::I64(99),
        serde::Value::I64(0),
    ]));
    assert_eq!(map_and_exact(&dir, &phys, &old), clean);
}

#[test]
fn dropped_adjacency_entry_maps_the_graph_the_edges_describe() {
    let dir = scratch_dir("short-adjacency");
    let (phys, venv) = ring_instance(&dir);
    let clean = map_and_exact(&dir, &phys, &venv);
    let mut old = with_stored_adjacency(venv);
    let adjacency = field(field(&mut old, "graph"), "adjacency");
    // Guest 4 loses its widest link (to guest 1) from its stored list.
    let serde::Value::Array(guest4) = item(adjacency, 4) else {
        panic!("an adjacency list is an array")
    };
    guest4.pop();
    assert_eq!(map_and_exact(&dir, &phys, &old), clean);
}

/// Writes `phys` and `venv`, runs `map` and `exact` on them and returns
/// each one's error message; both must fail.
fn load_errors(dir: &std::path::Path, phys: &serde::Value, venv: &serde::Value) -> Vec<String> {
    let (phys_path, venv_path) = (dir.join("phys.json"), dir.join("venv.json"));
    std::fs::write(&phys_path, serde_json::to_string_pretty(phys).unwrap()).unwrap();
    std::fs::write(&venv_path, serde_json::to_string_pretty(venv).unwrap()).unwrap();
    let (phys_path, venv_path) = (phys_path.to_str().unwrap(), venv_path.to_str().unwrap());
    ["map", "exact"]
        .iter()
        .map(|cmd| {
            cli(&[cmd, "--phys", phys_path, "--venv", venv_path])
                .expect_err("an invalid link spec must be rejected on load")
        })
        .collect()
}

/// Sets `field` of edge 1 of the phys file (`venv` false) or of the venv
/// file to each of `values`, and checks that `map` and `exact` reject the
/// instance with an error naming that field.
fn assert_link_field_rejected(test: &str, venv: bool, field_name: &str, values: &[serde::Value]) {
    let dir = scratch_dir(test);
    let (phys_path, clean_venv) = ring_instance(&dir);
    let clean_phys = std::fs::read_to_string(&phys_path).unwrap();
    let clean_phys = serde_json::value_from_str(&clean_phys).unwrap();
    let (ty, unit) = if venv {
        ("VirtualEnvironment", clean_venv.clone())
    } else {
        ("PhysicalTopology", clean_phys.clone())
    };
    for value in values {
        let mut bad = unit.clone();
        let edges = field(field(&mut bad, "graph"), "edges");
        *field(field(item(edges, 1), "weight"), field_name) = value.clone();
        let (phys, venv_value) = if venv {
            (clean_phys.clone(), bad)
        } else {
            (bad, clean_venv.clone())
        };
        for err in load_errors(&dir, &phys, &venv_value) {
            let expected = format!("{ty}.graph: edges[1].{field_name}: ");
            assert!(err.contains(&expected), "{value:?}: {err}");
        }
    }
}

#[test]
fn negative_or_nan_physical_latency_is_a_typed_cli_error() {
    let values = [serde::Value::F64(-1.0), serde::Value::Str("NaN".into())];
    assert_link_field_rejected("bad-phys-lat", false, "lat", &values);
}

#[test]
fn negative_or_non_finite_physical_bandwidth_is_a_typed_cli_error() {
    let values = [
        serde::Value::F64(-5.0),
        serde::Value::Str("Infinity".into()),
        serde::Value::Str("NaN".into()),
    ];
    assert_link_field_rejected("bad-phys-bw", false, "bw", &values);
}

#[test]
fn negative_or_nan_virtual_latency_is_a_typed_cli_error() {
    let values = [serde::Value::F64(-0.5), serde::Value::Str("NaN".into())];
    assert_link_field_rejected("bad-venv-lat", true, "lat", &values);
}

#[test]
fn negative_or_non_finite_virtual_bandwidth_is_a_typed_cli_error() {
    let values = [
        serde::Value::F64(-100.0),
        serde::Value::Str("-Infinity".into()),
        serde::Value::Str("NaN".into()),
    ];
    assert_link_field_rejected("bad-venv-bw", true, "bw", &values);
}
