//! The emumap benchmark runner: one workload per run, end to end against
//! the shipped `emumap` binary (`--trace 0`) or layer by layer in-process
//! (`--trace 1`). Prints a report, then one JSON result line.
//!
//! Usage: `emumap-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --emumap PATH --state DIR` (normally through `perfbench/run.py`).

mod alloc;
mod inputs;
mod layers;
mod map_wl;
mod oracle_wl;
mod proc;
mod serve_wl;
mod spans;
mod staged;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// End-to-end metrics (untraced runs) and their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("throughput_ops_s", "1/s"),
    ("objective_mean", "MIPS"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (traced runs) and their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ms", "ms"),
    ("model.io.parse_ms", "ms"),
    ("model.io.write_ms", "ms"),
    ("model.io.bytes_in", "bytes"),
    ("model.io.bytes_out", "bytes"),
    ("graph.dijkstra_ms", "ms"),
    ("graph.dijkstra_runs", "count"),
    ("graph.ar_cache_hits", "count"),
    ("core.hosting.ms", "ms"),
    ("core.hosting.colocation_hits", "count"),
    ("core.hosting.first_fit_fallbacks", "count"),
    ("core.migration.ms", "ms"),
    ("core.migration.moves_accepted", "count"),
    ("core.migration.proposals", "count"),
    ("core.networking.ms", "ms"),
    ("core.astar_prune.expansions", "count"),
    ("core.astar_prune.pushed", "count"),
    ("core.astar_prune.expansions_per_link", "ratio"),
    ("core.astar_prune.pushed_per_expansion", "ratio"),
    ("core.astar_prune.ns_per_expansion", "ns"),
    ("core.serve.apply_ms.p50", "ms"),
    ("core.serve.apply_ms.tail", "ms"),
    ("core.serve.remove_ms.p50", "ms"),
    ("core.serve.map_ms.p50", "ms"),
    ("core.serve.bookkeeping_ms.p50", "ms"),
    ("core.serve.active_tenants", "count"),
    ("core.serve.reject_rate", "ratio"),
    ("core.exact.seq_ms", "ms"),
    ("core.exact.epoch1_ms", "ms"),
    ("core.exact.nodes_expanded", "count"),
    ("core.exact.epoch1_nodes_expanded", "count"),
    ("core.exact.nodes_pruned", "count"),
    ("core.exact.prune_ratio", "ratio"),
    ("core.exact.certified_rate", "ratio"),
    ("core.lagrangian.subgradient_iters", "count"),
    ("core.lagrangian.bound_improvements", "count"),
    ("cli.overhead_ms", "ms"),
    ("cli.serve.protocol_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What a run needs to know.
pub struct Ctx {
    pub emumap: PathBuf,
    /// Work directory of this run, removed when it ends.
    pub work: PathBuf,
    /// Directory of the run's outputs (span files of traced runs).
    pub state: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    pub fn write(&self, name: &str, text: &str) -> PathBuf {
        let path = self.path(name);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        path
    }
}

/// What a run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check; the run is then not correct.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.errors.push(what());
        }
        ok
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Runs `setup` `times` times and returns the last result with each run's
/// wall time in seconds.
pub fn timed_setups<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let start = std::time::Instant::now();
        last = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    (last.expect("times >= 1"), secs)
}

/// Ops of an untraced run: `per_second` ops for every second of
/// `--seconds`, in whole multiples of `unit` (at least one). The count
/// depends on the arguments alone, not on the host's speed, so every run
/// of a workload has the same mix of ops and its tail is always the same
/// percentile.
pub fn fixed_ops(seconds: f64, per_second: f64, unit: usize) -> usize {
    let units = (seconds * per_second / unit as f64).round() as usize;
    units.max(1) * unit
}

/// `f` over `items` on two threads, results in order. Used for the
/// checks after a timed loop, never for the load itself.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let (a, b) = items.split_at(items.len().div_ceil(2));
    std::thread::scope(|s| {
        let second = s.spawn(|| b.iter().map(&f).collect::<Vec<R>>());
        let mut results: Vec<R> = a.iter().map(&f).collect();
        results.extend(second.join().expect("check thread panicked"));
        results
    })
}

/// A closed loop's record: each op's latency and the loop time at which
/// it ended.
#[derive(Default)]
pub struct Loop {
    start: Option<std::time::Instant>,
    pub latencies_ms: Vec<f64>,
    done_s: Vec<f64>,
}

impl Loop {
    /// Starts the loop's clock.
    pub fn start(&mut self) {
        self.start = Some(std::time::Instant::now());
    }

    /// Records one op that has just ended.
    pub fn push(&mut self, ms: f64) {
        let start = self.start.expect("loop started");
        self.latencies_ms.push(ms);
        self.done_s.push(start.elapsed().as_secs_f64());
    }

    /// Shared end-to-end reporting. The loop is cut into blocks of `block`
    /// consecutive ops (whole cycles of the workload's mix; 0 means one
    /// block); each metric is the median over the blocks of the block's
    /// median, tail and ops per second. A burst of contention on the host
    /// that slows less than half of the blocks then leaves the metrics
    /// unchanged, whereas in one pooled sample it would push the slowed
    /// ops above the median and move it.
    pub fn set_metrics(&self, out: &mut Outcome, block: usize) {
        let n = self.latencies_ms.len();
        let block = if block == 0 { n.max(1) } else { block };
        let (mut p50, mut tails, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        let mut tail_at = (0.0, 0);
        let mut begun = 0.0;
        for (lat, done) in self
            .latencies_ms
            .chunks(block)
            .zip(self.done_s.chunks(block))
        {
            let (tail, pct, beyond) = stats::tail(lat);
            tail_at = (pct, beyond);
            p50.push(stats::median(lat));
            tails.push(tail);
            let end = done[done.len() - 1];
            rates.push(lat.len() as f64 / (end - begun));
            begun = end;
        }
        out.set("latency_ms.p50", stats::median(&p50));
        out.set("latency_ms.tail", stats::median(&tails));
        out.set("throughput_ops_s", stats::median(&rates));
        out.note(format!(
            "closed loop: {n} ops in {begun:.2} s, {} blocks of {block}; tail = p{} with {} samples beyond it in each block",
            p50.len(),
            tail_at.0,
            tail_at.1
        ));
        let l = &self.latencies_ms;
        out.note(format!(
            "pooled latency p10/p25/p50/p75/p90: {:.3} {:.3} {:.3} {:.3} {:.3} ms",
            stats::quantile(l, 0.1),
            stats::quantile(l, 0.25),
            stats::quantile(l, 0.5),
            stats::quantile(l, 0.75),
            stats::quantile(l, 0.9),
        ));
        if p50.len() > 1 {
            let list = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:.2}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            out.note(format!("block p50 ms: {}", list(&p50)));
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: emumap-perfbench --workload paper-torus-low|paper-switched-high|serve-churn|oracle-smoke \
         --seed N --seconds S --trace 0|1 --emumap PATH --state DIR"
    );
    std::process::exit(2)
}

fn parse_args() -> (Ctx, bool) {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(key) = args.next() {
        let (Some(key), Some(value)) = (key.strip_prefix("--"), args.next()) else {
            usage()
        };
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).cloned().unwrap_or_else(|| usage());
    let workload = get("workload");
    if ![
        "paper-torus-low",
        "paper-switched-high",
        "serve-churn",
        "oracle-smoke",
    ]
    .contains(&workload.as_str())
    {
        usage()
    }
    let seed: u64 = get("seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = get("seconds").parse().unwrap_or_else(|_| usage());
    let trace = match get("trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let state = PathBuf::from(get("state"));
    let work = state.join(format!("work-{}", std::process::id()));
    let ctx = Ctx {
        emumap: PathBuf::from(get("emumap")),
        work,
        state,
        workload,
        seed,
        seconds,
    };
    (ctx, trace)
}

fn main() {
    let (ctx, trace) = parse_args();
    std::fs::create_dir_all(&ctx.work)
        .unwrap_or_else(|e| panic!("creating {}: {e}", ctx.work.display()));
    let mut out = match (ctx.workload.as_str(), trace) {
        ("paper-torus-low", false) => map_wl::end_to_end(&ctx, map_wl::Family::TorusLow),
        ("paper-torus-low", true) => map_wl::per_layer(&ctx, map_wl::Family::TorusLow),
        ("paper-switched-high", false) => map_wl::end_to_end(&ctx, map_wl::Family::SwitchedHigh),
        ("paper-switched-high", true) => map_wl::per_layer(&ctx, map_wl::Family::SwitchedHigh),
        ("serve-churn", false) => serve_wl::end_to_end(&ctx),
        ("serve-churn", true) => serve_wl::per_layer(&ctx),
        ("oracle-smoke", false) => oracle_wl::end_to_end(&ctx),
        ("oracle-smoke", true) => oracle_wl::per_layer(&ctx),
        _ => unreachable!("parse_args accepts only the four workload names"),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);

    let declared = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in declared {
        let ok = out.metrics.get(name).is_some_and(|v| v.is_finite());
        out.check(ok, || format!("metric {name} missing or not finite"));
    }
    println!(
        "emumap benchmark: workload {} seed {} ({})",
        ctx.workload,
        ctx.seed,
        if trace {
            "traced, per layer"
        } else {
            "untraced, end to end"
        }
    );
    for line in &out.notes {
        println!("  {line}");
    }
    for (name, unit) in declared {
        let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("  {name:<40} {v:>16.6} {unit}");
    }
    for e in &out.errors {
        println!("  CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let metrics: Vec<String> = declared
        .iter()
        .filter_map(|(name, unit)| {
            let v = out.metrics.get(name)?;
            v.is_finite()
                .then(|| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
