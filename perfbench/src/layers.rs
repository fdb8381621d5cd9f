//! Per-layer measurements shared by the workloads: stage metrics from the
//! staged HMN spans, the serve-layer and oracle-layer probes, and the
//! deterministic counters that must repeat exactly for a seed.

use crate::inputs::{Files, Instance};
use crate::spans::Spans;
use crate::staged::{counters_of, TimedMapper};
use crate::{proc, stats, Ctx, Outcome};
use emumap_core::serve::{ApplyOutcome, Session};
use emumap_core::{
    solve_exact_with, ExactConfig, ExactOutcome, Hmn, MapCache, MapOutcome, MapStats,
};
use emumap_model::objective::mapping_objective;
use emumap_model::{Mapping, PhysicalTopology, VirtualEnvironment};
use std::collections::BTreeMap;
use std::time::Instant;

/// Repetitions of each process measurement in a traced run.
const PROCESS_REPS: usize = 3;

/// Reads and parses an instance's files in a `model.io.parse` span;
/// returns the bytes read too.
pub fn parse_files(spans: &Spans, f: &Files) -> (PhysicalTopology, VirtualEnvironment, usize) {
    let phys_text = std::fs::read_to_string(&f.phys).expect("read phys");
    let venv_text = std::fs::read_to_string(&f.venv).expect("read venv");
    let (phys, venv) = spans.time("model.io.parse", || {
        (
            serde_json::from_str(&phys_text).expect("phys parses"),
            serde_json::from_str(&venv_text).expect("venv parses"),
        )
    });
    (phys, venv, phys_text.len() + venv_text.len())
}

/// Checks that the staged replay reproduced the shipped mapper: mapping,
/// objective and counters.
pub fn check_staged(out: &mut Outcome, label: &str, staged: &MapOutcome, shipped: &MapOutcome) {
    let same = staged.mapping == shipped.mapping
        && staged.objective == shipped.objective
        && counters_of(&staged.stats) == counters_of(&shipped.stats);
    if !out.check(same, || {
        format!("{label}: staged replay differs from Hmn::map_with_cache")
    }) {
        out.failed += 1;
    }
}

/// Checks that the shipped mapper repeated the staged replay's counters,
/// mapping by mapping.
pub fn check_repeat(out: &mut Outcome, label: &str, staged: &[MapStats], shipped: &[MapStats]) {
    let same = staged.len() == shipped.len()
        && staged
            .iter()
            .zip(shipped)
            .all(|(a, b)| counters_of(a) == counters_of(b));
    out.check(same, || {
        format!("{label}: deterministic counters differ between the staged and the shipped mapper")
    });
}

/// The shipped binary against the same work in-process, per instance:
/// untraced and traced runs and the in-process operation, each repeated.
#[derive(Default)]
pub struct ProcessTiming {
    plain_ms: f64,
    traced_ms: f64,
    overhead_ms: Vec<f64>,
}

impl ProcessTiming {
    pub fn measure(
        &mut self,
        out: &mut Outcome,
        ctx: &Ctx,
        label: &str,
        (f, cmd): (&Files, &[&str]),
        in_process: impl Fn() -> f64,
    ) {
        let trace_file = ctx.path("trace.jsonl");
        let trace = trace_file.to_str().expect("work paths are UTF-8");
        let (mut plain, mut traced, mut inproc) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..PROCESS_REPS {
            for (times, trace) in [(&mut plain, None), (&mut traced, Some(trace))] {
                let run = proc::run(&ctx.emumap, &f.args(cmd, trace));
                out.check(run.ok, || {
                    format!("{label}: emumap {} failed: {}", cmd[0], run.stderr.trim())
                });
                times.push(run.ms);
            }
            inproc.push(in_process());
        }
        self.plain_ms += stats::median(&plain);
        self.traced_ms += stats::median(&traced);
        self.overhead_ms
            .push(stats::median(&plain) - stats::median(&inproc));
    }

    pub fn set_metrics(&self, out: &mut Outcome) {
        out.set("cli.overhead_ms", stats::mean(&self.overhead_ms));
        out.set(
            "trace.overhead_pct",
            100.0 * (self.traced_ms / self.plain_ms - 1.0),
        );
    }
}

/// Node budget of the oracle probe on instances beyond its reach.
pub const PROBE_NODE_BUDGET: u64 = 1000;

/// Deterministic effort counters, summed over a run.
#[derive(Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_default() += v;
    }

    pub fn add_map(&mut self, s: &MapStats) {
        for (name, v) in counters_of(s) {
            self.add(name, v);
        }
    }

    pub fn merge_exact(&mut self, e: &ExactProbe) {
        self.add("exact_seq_nodes", e.seq_nodes);
        self.add("exact_epoch1_nodes", e.epoch_nodes);
        self.add("exact_pruned", e.pruned);
        self.add("subgradient_iters", e.subgradient_iters);
        self.add("bound_improvements", e.bound_improvements);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |&v| v as f64)
    }
}

/// Stage and route-search metrics from the staged HMN spans and counters.
pub fn set_stage_metrics(out: &mut Outcome, spans: &Spans, c: &Counters) {
    let totals = spans.totals();
    let per_call = |name: &str, self_time: bool| {
        totals.get(name).map_or(f64::NAN, |t| {
            (if self_time { t.self_ms } else { t.total_ms }) / t.count as f64
        })
    };
    out.set("model.io.parse_ms", per_call("model.io.parse", false));
    out.set("model.io.write_ms", per_call("model.io.write", false));
    out.set("graph.dijkstra_ms", per_call("graph.dijkstra", true));
    out.set("core.hosting.ms", per_call("core.hosting", true));
    out.set("core.migration.ms", per_call("core.migration", true));
    out.set("core.networking.ms", per_call("core.networking", true));
    out.set("graph.dijkstra_runs", c.get("dijkstra_runs"));
    out.set("graph.ar_cache_hits", c.get("ar_cache_hits"));
    out.set("core.hosting.colocation_hits", c.get("colocation_hits"));
    out.set(
        "core.hosting.first_fit_fallbacks",
        c.get("first_fit_fallbacks"),
    );
    out.set("core.migration.moves_accepted", c.get("moves_accepted"));
    out.set("core.migration.proposals", c.get("proposals"));
    let expansions = c.get("astar_expansions");
    let pushed = c.get("astar_pushed");
    out.set("core.astar_prune.expansions", expansions);
    out.set("core.astar_prune.pushed", pushed);
    out.set(
        "core.astar_prune.expansions_per_link",
        expansions / c.get("routed_links"),
    );
    out.set("core.astar_prune.pushed_per_expansion", pushed / expansions);
    let networking_ns = totals
        .get("core.networking")
        .map_or(f64::NAN, |t| t.self_ms * 1e6);
    out.set(
        "core.astar_prune.ns_per_expansion",
        networking_ns / expansions,
    );
}

/// The serve layer: admissions and removals timed in-process through
/// `Session` (the mapper wrapped in [`TimedMapper`]) and end to end through
/// an `emumap serve` daemon.
#[derive(Default)]
pub struct ServeProbe {
    /// Daemon latency minus in-process time, per request.
    pub protocol_ms: Vec<f64>,
    /// Live tenants after each request.
    pub active: Vec<f64>,
    pub applies: u64,
    pub rejects: u64,
}

impl ServeProbe {
    /// Admits `inst`'s environment into an empty session over its cluster
    /// and removes it again, in-process and through the daemon; the
    /// admission must reproduce the one-shot HMN objective.
    pub fn run_instance(
        &mut self,
        out: &mut Outcome,
        ctx: &Ctx,
        spans: &Spans,
        inst: &Instance,
        reference: &MapOutcome,
    ) {
        let hmn = Hmn::new();
        let mapper = TimedMapper { inner: &hmn, spans };
        let venv_json = serde_json::to_string(&inst.venv).expect("venv serializes");
        let request = format!("{{\"apply\":{{\"id\":\"probe\",\"venv\":{venv_json}}}}}");
        let mut session = Session::new(inst.phys.clone(), 2009);
        let t = Instant::now();
        let venv: VirtualEnvironment = serde_json::from_str(&venv_json).expect("venv parses");
        let admitted = spans.time("core.serve.apply", || session.apply("probe", venv, &mapper));
        let apply_ms = t.elapsed().as_secs_f64() * 1e3;
        self.applies += 1;
        let objective = match admitted {
            ApplyOutcome::Admitted(report) => report.objective,
            ApplyOutcome::Rejected { reason } => {
                self.rejects += 1;
                out.check(false, || {
                    format!("{}: serve probe rejected: {reason}", inst.label)
                });
                return;
            }
        };
        out.check(objective == reference.objective, || {
            format!(
                "{}: admission objective {objective} differs from HMN {}",
                inst.label, reference.objective
            )
        });
        self.active.push(1.0);
        let t = Instant::now();
        let removed = spans.time("core.serve.remove", || session.remove("probe"));
        let remove_ms = t.elapsed().as_secs_f64() * 1e3;
        out.check(removed.is_ok(), || {
            format!("{}: serve probe remove failed", inst.label)
        });
        self.active.push(0.0);

        let phys_path = ctx.write("serve_phys.json", &inst.phys_json);
        let Ok(mut daemon) = proc::Daemon::spawn(&ctx.emumap, &phys_path, 2009, None) else {
            out.check(false, || "spawning emumap serve failed".to_string());
            return;
        };
        let replies = daemon
            .request("{\"status\":{}}")
            .and_then(|_| daemon.request(&request))
            .and_then(|a| Ok((a, daemon.request("{\"remove\":{\"id\":\"probe\"}}")?)));
        match replies {
            Ok(((applied, p_apply), (removed, p_remove))) => {
                let expected = serde_json::to_string(&objective).expect("f64 serializes");
                out.check(
                    applied.starts_with("{\"applied\"")
                        && applied.contains(&format!("\"objective\":{expected}")),
                    || format!("{}: daemon apply reply {applied:.120}", inst.label),
                );
                out.check(removed.starts_with("{\"removed\""), || {
                    format!("{}: daemon remove reply {removed:.120}", inst.label)
                });
                self.protocol_ms.push(p_apply - apply_ms);
                self.protocol_ms.push(p_remove - remove_ms);
            }
            Err(e) => {
                out.check(false, || {
                    format!("{}: daemon request failed: {e}", inst.label)
                });
            }
        }
        out.check(daemon.shutdown(), || {
            "emumap serve did not shut down cleanly".to_string()
        });
    }

    pub fn set_metrics(&self, out: &mut Outcome, spans: &Spans) {
        let apply = spans.durations_ms("core.serve.apply");
        let map = spans.durations_ms("core.serve.map");
        let bookkeeping: Vec<f64> = apply.iter().zip(&map).map(|(a, m)| a - m).collect();
        out.set("core.serve.apply_ms.p50", stats::median(&apply));
        out.set("core.serve.apply_ms.tail", stats::tail(&apply).0);
        out.set(
            "core.serve.remove_ms.p50",
            stats::median(&spans.durations_ms("core.serve.remove")),
        );
        out.set("core.serve.map_ms.p50", stats::median(&map));
        out.set("core.serve.bookkeeping_ms.p50", stats::median(&bookkeeping));
        out.set("core.serve.active_tenants", stats::mean(&self.active));
        out.set(
            "core.serve.reject_rate",
            self.rejects as f64 / self.applies as f64,
        );
        out.set("cli.serve.protocol_ms", stats::median(&self.protocol_ms));
    }
}

/// The oracle layer: `solve_exact_with` with the sequential engine
/// (`threads = 0`, the shipped default) and the epoch engine at one worker
/// (`threads = 1`), which must agree.
#[derive(Default)]
pub struct ExactProbe {
    seq_ms: Vec<f64>,
    epoch_ms: Vec<f64>,
    seq_nodes: u64,
    epoch_nodes: u64,
    pruned: u64,
    subgradient_iters: u64,
    bound_improvements: u64,
    certified: u64,
    /// Certified instances where the engines returned different optimal
    /// mappings.
    different_optima: u64,
    instances: u64,
}

impl ExactProbe {
    /// Solves `phys`/`venv` with both engines, `witness` (HMN's mapping)
    /// seeding the incumbent as in `emumap exact`; returns the sequential
    /// engine's outcome.
    pub fn run_instance(
        &mut self,
        out: &mut Outcome,
        spans: &Spans,
        label: &str,
        (phys, venv): (&PhysicalTopology, &VirtualEnvironment),
        witness: Option<&Mapping>,
        max_nodes: u64,
    ) -> ExactOutcome {
        let witnesses: Vec<Mapping> = witness.into_iter().cloned().collect();
        let solve = |threads: usize, span: &'static str| {
            let config = ExactConfig {
                max_nodes,
                threads,
                ..ExactConfig::default()
            };
            let t = Instant::now();
            let outcome = spans.time(span, || {
                solve_exact_with(phys, venv, &config, &mut MapCache::new(), &witnesses)
            });
            (outcome, t.elapsed().as_secs_f64() * 1e3)
        };
        let (seq, seq_ms) = solve(0, "core.exact.seq");
        let (epoch, epoch_ms) = solve(1, "core.exact.epoch1");
        // The sequential solve once more, untimed: its verdict, optimum,
        // bound and every counter must repeat.
        let again = solve_exact_with(
            phys,
            venv,
            &ExactConfig {
                max_nodes,
                ..ExactConfig::default()
            },
            &mut MapCache::new(),
            &witnesses,
        );
        let repeated = again.status == seq.status
            && again.stats == seq.stats
            && again.lower_bound.to_bits() == seq.lower_bound.to_bits()
            && again.best.as_ref().map(|b| &b.mapping) == seq.best.as_ref().map(|b| &b.mapping);
        out.check(repeated, || {
            format!("{label}: a repeated sequential solve gave different counters or results")
        });
        let best = |o: &ExactOutcome| o.best.as_ref().map(|b| b.objective);
        // Certified verdicts must agree on the optimum and the bound. The
        // engines may return different optimal mappings (symmetric optima
        // on uniform hosts), whose Eq. 10 values then differ by rounding
        // only, hence the relative tolerance. Under a node budget the
        // engines visit nodes in different orders, so only the verdict
        // must match.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        let optima_agree = match (best(&seq), best(&epoch)) {
            (Some(a), Some(b)) => close(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        let agree = seq.status == epoch.status
            && (!seq.is_certified() || (optima_agree && close(seq.lower_bound, epoch.lower_bound)));
        out.check(agree, || {
            format!(
                "{label}: sequential and epoch engines disagree: {:?} {:?} lower {} vs {:?} {:?} lower {}",
                seq.status,
                best(&seq),
                seq.lower_bound,
                epoch.status,
                best(&epoch),
                epoch.lower_bound
            )
        });
        let mapping = |o: &ExactOutcome| o.best.as_ref().map(|b| b.mapping.clone());
        self.different_optima += u64::from(seq.is_certified() && mapping(&seq) != mapping(&epoch));
        let incumbent = witness.map(|w| mapping_objective(phys, venv, w));
        if let (Some(opt), Some(hmn)) = (best(&seq), incumbent) {
            out.check(seq.lower_bound <= opt && opt <= hmn, || {
                format!(
                    "{label}: bound order violated: lower {} / best {opt} / HMN {hmn}",
                    seq.lower_bound
                )
            });
        }
        self.seq_ms.push(seq_ms);
        self.epoch_ms.push(epoch_ms);
        self.seq_nodes += seq.stats.nodes_expanded;
        self.epoch_nodes += epoch.stats.nodes_expanded;
        self.pruned += seq.stats.pruned_total();
        self.subgradient_iters += seq.stats.subgradient_iters;
        self.bound_improvements += seq.stats.bound_improvements;
        self.certified += u64::from(seq.is_certified());
        self.instances += 1;
        seq
    }

    pub fn set_metrics(&self, out: &mut Outcome) {
        out.set("core.exact.seq_ms", stats::mean(&self.seq_ms));
        out.set("core.exact.epoch1_ms", stats::mean(&self.epoch_ms));
        out.set("core.exact.nodes_expanded", self.seq_nodes as f64);
        out.set("core.exact.epoch1_nodes_expanded", self.epoch_nodes as f64);
        out.set("core.exact.nodes_pruned", self.pruned as f64);
        out.set(
            "core.exact.prune_ratio",
            self.pruned as f64 / self.seq_nodes.max(1) as f64,
        );
        out.set(
            "core.exact.certified_rate",
            self.certified as f64 / self.instances as f64,
        );
        out.set(
            "core.lagrangian.subgradient_iters",
            self.subgradient_iters as f64,
        );
        out.set(
            "core.lagrangian.bound_improvements",
            self.bound_improvements as f64,
        );
        out.note(format!(
            "oracle engines: sequential {:.2} ms / {} nodes, epoch(1) {:.2} ms / {} nodes, per instance over {}; different optimal mappings on {}",
            stats::mean(&self.seq_ms),
            self.seq_nodes / self.instances.max(1),
            stats::mean(&self.epoch_ms),
            self.epoch_nodes / self.instances.max(1),
            self.instances,
            self.different_optima
        ));
    }
}

/// Ends a traced run: prints the self-time table and the deterministic
/// counters, and writes the spans to the state directory.
///
/// `probes` are the span-name prefixes of layers measured beside the
/// workload's own operation; shares are of the operation's spans only.
pub fn finish(out: &mut Outcome, ctx: &Ctx, spans: &Spans, counters: &Counters, probes: &[&str]) {
    let totals = spans.totals();
    let probe = |name: &str| probes.iter().any(|p| name.starts_with(p));
    let op: f64 = totals
        .iter()
        .filter(|(n, _)| !probe(n))
        .map(|(_, t)| t.self_ms)
        .sum();
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by(|a, b| {
        (probe(a.0), b.1.self_ms)
            .partial_cmp(&(probe(b.0), a.1.self_ms))
            .expect("finite")
    });
    out.note("self time by span (ms; share of the operation's spans):".to_string());
    for (name, t) in rows {
        let share = if probe(name) {
            "probe".to_string()
        } else {
            format!("{:.1} %", 100.0 * t.self_ms / op)
        };
        out.note(format!(
            "  {name:<22} {:>6} calls {:>12.3} ms {share:>8}",
            t.count, t.self_ms
        ));
    }
    let counts: Vec<String> = counters.0.iter().map(|(k, v)| format!("{k} {v}")).collect();
    out.note(format!("counters: {}", counts.join(", ")));

    let dir = ctx.state.join("records");
    let _ = std::fs::create_dir_all(&dir);
    let spans_path = dir.join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    if let Err(e) = spans.write_jsonl(&spans_path) {
        out.check(false, || format!("writing {}: {e}", spans_path.display()));
    }
}
