//! Workload inputs, generated in-process from the run's seed through
//! `emumap_workloads` and the model constructors.

use emumap_graph::generators::{Role, Topology};
use emumap_model::{Kbps, LinkSpec, Millis, PhysicalTopology, VirtualEnvironment};
use emumap_workloads::{
    instantiate, oracle_smoke, paper_scenarios, ClusterSpec, ClusterTopology, WorkloadKind,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

use crate::Ctx;

/// One instance to map, with the files the program reads.
pub struct Instance {
    pub label: String,
    pub phys: PhysicalTopology,
    pub venv: VirtualEnvironment,
    pub phys_json: String,
    pub venv_json: String,
}

impl Instance {
    fn new(label: String, phys: PhysicalTopology, venv: VirtualEnvironment) -> Self {
        // Pretty-printed, as `emumap gen-cluster` / `gen-venv` write them.
        let phys_json = serde_json::to_string_pretty(&phys).expect("topology serializes");
        let venv_json = serde_json::to_string_pretty(&venv).expect("venv serializes");
        Instance {
            label,
            phys,
            venv,
            phys_json,
            venv_json,
        }
    }
}

/// An instance's files in the run's work directory.
pub struct Files {
    pub phys: PathBuf,
    pub venv: PathBuf,
    /// Where the program writes its mapping.
    pub out: PathBuf,
}

impl Files {
    /// `emumap CMD.. --phys P --venv V -o OUT [--trace TRACE]`, where
    /// `cmd` is the subcommand and its own flags.
    pub fn args<'a>(&'a self, cmd: &[&'a str], trace: Option<&'a str>) -> Vec<&'a str> {
        let path = |p: &'a PathBuf| p.to_str().expect("work paths are UTF-8");
        let mut args = cmd.to_vec();
        args.extend(["--phys", path(&self.phys), "--venv", path(&self.venv)]);
        args.extend(["-o", path(&self.out)]);
        if let Some(t) = trace {
            args.extend(["--trace", t]);
        }
        args
    }
}

/// Writes every instance's topology and environment; `out` names the
/// file each program run writes.
pub fn write_files(ctx: &Ctx, instances: &[Instance], out: &str) -> Vec<Files> {
    instances
        .iter()
        .enumerate()
        .map(|(i, inst)| Files {
            phys: ctx.write(&format!("phys{i}.json"), &inst.phys_json),
            venv: ctx.write(&format!("venv{i}.json"), &inst.venv_json),
            out: ctx.path(&format!("{out}{i}.json")),
        })
        .collect()
}

/// Draws of Table 2/3 rows of one workload family on one paper cluster.
/// `rows` are the family's rows with a guest/host ratio of at most
/// `max_ratio`, in the paper's order; `cycle` lists indices into them, and
/// the result repeats the cycle `cycles` times, every entry a fresh draw
/// (the next repetition of its row).
pub fn paper_rows(
    kind: WorkloadKind,
    topology: ClusterTopology,
    max_ratio: f64,
    cycle: &[usize],
    cycles: usize,
    seed: u64,
) -> Vec<Instance> {
    let cluster = ClusterSpec::paper();
    let rows: Vec<_> = paper_scenarios()
        .into_iter()
        .filter(|row| row.workload == kind && row.ratio <= max_ratio)
        .collect();
    let mut reps = vec![0u32; rows.len()];
    (0..cycles)
        .flat_map(|_| cycle.iter().copied())
        .map(|r| {
            let (row, rep) = (&rows[r], reps[r]);
            reps[r] += 1;
            let inst = instantiate(&cluster, topology, row, rep, seed);
            Instance::new(format!("{} rep {rep}", row.label()), inst.phys, inst.venv)
        })
        .collect()
}

/// `emumap exact` instances: the built-in 6-host ring / 8-guest smoke
/// family, `count` consecutive smoke seeds starting at a seed-derived base.
pub fn smoke_family(seed: u64, count: u64) -> Vec<Instance> {
    let base = seed.wrapping_mul(1000);
    (0..count)
        .map(|i| {
            let (phys, venv) = oracle_smoke(base + i);
            Instance::new(format!("smoke {}", base + i), phys, venv)
        })
        .collect()
}

/// Hosts of the serve cluster.
pub const SERVE_HOSTS: usize = 1024;
const SERVE_EDGE_SWITCHES: usize = 16;

/// The `serve-churn` cluster: 1024 Table 1 hosts under 16 edge switches of
/// 64 hosts each, joined by one core switch (host–host paths of at most
/// 4 hops, 20 ms), 1 Gbps / 5 ms links.
pub fn serve_cluster(seed: u64) -> (PhysicalTopology, String) {
    let mut shape = Topology::new();
    let core = shape.add_node(Role::Switch);
    for _ in 0..SERVE_EDGE_SWITCHES {
        let edge = shape.add_node(Role::Switch);
        shape.add_edge(core, edge, ());
        for _ in 0..SERVE_HOSTS / SERVE_EDGE_SWITCHES {
            let host = shape.add_node(Role::Host);
            shape.add_edge(edge, host, ());
        }
    }
    let spec = ClusterSpec {
        hosts: SERVE_HOSTS,
        ..ClusterSpec::paper()
    };
    let hosts = spec.draw_hosts(&mut SmallRng::seed_from_u64(seed));
    let phys = PhysicalTopology::from_shape(
        &shape,
        hosts.into_iter(),
        LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
        spec.vmm,
    );
    let json = serde_json::to_string_pretty(&phys).expect("topology serializes");
    (phys, json)
}

/// Hosts' worth of a paper row in one `serve-churn` tenant.
pub const TENANT_HOSTS: usize = 8;

/// Tenant environments for `serve-churn`, one per arrival: arrival `i`
/// takes the Table 2/3 row `i mod 16` of `paper_scenarios` and generates
/// a fresh draw of that row's environment for a slice of `TENANT_HOSTS`
/// hosts, at the row's guest/host ratio and density with the Table 1
/// generator (high-level rows: 20–80 guests at density 0.015–0.025;
/// low-level rows: 160–400 guests at density 0.01). Cycling through the
/// rows, rather than drawing them, keeps the mix of tenant sizes the same
/// for every seed. Returns each venv with its inline JSON.
pub fn tenant_pool(seed: u64, count: usize) -> Vec<(VirtualEnvironment, String)> {
    let rows = paper_scenarios();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e4a_17c0_5eed_0001);
    (0..count)
        .map(|i| {
            let row = &rows[i % rows.len()];
            let venv = row.venv_spec(TENANT_HOSTS).generate(&mut rng);
            let json = serde_json::to_string(&venv).expect("venv serializes");
            (venv, json)
        })
        .collect()
}
