//! `paper-torus-low` and `paper-switched-high`: Table 3 instances mapped
//! by `emumap map --mapper hmn`, one process per instance.

use crate::inputs::{paper_rows, write_files, Files, Instance};
use crate::layers::{self, Counters, ExactProbe, ProcessTiming, ServeProbe};
use crate::spans::Spans;
use crate::staged::StagedHmn;
use crate::{proc, stats, timed_setups, Ctx, Loop, Outcome, ALLOC};
use emumap_core::{Hmn, MapCache, MapOutcome, Mapper};
use emumap_model::objective::mapping_objective;
use emumap_model::{validate_mapping, Mapping, PhysicalTopology, VirtualEnvironment};
use emumap_workloads::{ClusterSpec, WorkloadKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Family {
    /// Table 3 low-level rows (20–50:1, density 0.01) on the 5×8 torus.
    TorusLow,
    /// Table 2/3 high-level rows 2.5–7.5:1 × 0.015/0.02/0.025 on the
    /// switched cluster. The 10:1 rows are left out: HMN's Hosting stage
    /// finds no host for some of their draws, and ops must not fail.
    SwitchedHigh,
}

impl Family {
    /// Row indices of one cycle of ops. The torus cycle draws the 40:1 row
    /// four times in seven, so the median and the tail (p60) fall inside
    /// that row's latencies (at about its 37th and 55th percentile) rather
    /// than where two rows' latencies overlap, where they would jump
    /// between runs with the draws.
    fn cycle(self) -> &'static [usize] {
        match self {
            Family::TorusLow => &[0, 1, 2, 2, 2, 2, 3],
            Family::SwitchedHigh => &[0, 1, 2, 3, 4, 5, 6, 7, 8],
        }
    }

    /// `cycles` cycles of fresh draws: every op of a run maps a different
    /// draw, so a run's statistics cover enough draws to be steady across
    /// seeds.
    fn instances(self, seed: u64, cycles: usize) -> Vec<Instance> {
        let (kind, topology, max_ratio) = match self {
            Family::TorusLow => (WorkloadKind::LowLevel, ClusterSpec::paper_torus(), 50.0),
            Family::SwitchedHigh => (WorkloadKind::HighLevel, ClusterSpec::paper_switched(), 7.5),
        };
        paper_rows(kind, topology, max_ratio, self.cycle(), cycles, seed)
    }

    /// Ops per second of `--seconds` in an untraced run: the loop takes
    /// about three quarters of `--seconds` on a 2-vCPU host, leaving the rest
    /// for set-up and the output checks.
    fn ops_per_second(self) -> f64 {
        match self {
            Family::TorusLow => 1.2,
            Family::SwitchedHigh => 100.0,
        }
    }

    /// Ops per block of the timed loop (see `Loop::set_metrics`), in whole
    /// cycles: a block of the switched family's 6 ms ops is 12 cycles, so
    /// its p90 has ten samples beyond it. The torus loop is one block: its
    /// ops take most of a second each, too few for a tail per block.
    fn block(self) -> usize {
        match self {
            Family::TorusLow => 0,
            Family::SwitchedHigh => 12 * self.cycle().len(),
        }
    }

    /// Most cycles of draws generated for an untraced run; ops beyond them
    /// map the draws again, in order. Drawing and writing a fresh instance
    /// for each of the switched family's thousands of ops made set-up
    /// (3–5 s for 1350) dwarf its 6 ms ops.
    fn max_draw_cycles(self) -> usize {
        match self {
            Family::TorusLow => usize::MAX,
            Family::SwitchedHigh => 20,
        }
    }
}

const MAP: &[&str] = &["map", "--mapper", "hmn"];
/// Set-ups timed before the timed loop, and again after it.
const SETUPS: usize = 2;

fn shipped(inst: &Instance) -> MapOutcome {
    Hmn::new()
        .map_with_cache(
            &inst.phys,
            &inst.venv,
            &mut SmallRng::seed_from_u64(2009),
            &mut MapCache::new(),
        )
        .expect("the workload's instances are mappable by HMN")
}

/// Checks one written mapping: Eqs. 1–9 hold, and the mapping and its
/// recomputed Eq. 10 objective equal the in-process HMN result. Returns
/// the objective.
fn check_output(
    out: &mut Outcome,
    inst: &Instance,
    bytes: &[u8],
    reference: &MapOutcome,
) -> Option<f64> {
    let text = String::from_utf8_lossy(bytes);
    let mapping: Mapping = match serde_json::from_str(&text) {
        Ok(m) => m,
        Err(e) => {
            out.check(false, || format!("{}: unreadable mapping: {e}", inst.label));
            return None;
        }
    };
    if let Err(v) = validate_mapping(&inst.phys, &inst.venv, &mapping) {
        out.check(false, || {
            format!("{}: invalid mapping: {:?}", inst.label, v.first())
        });
        return None;
    }
    let objective = mapping_objective(&inst.phys, &inst.venv, &mapping);
    let same = mapping == reference.mapping && objective == reference.objective;
    out.check(same, || {
        format!(
            "{}: written mapping differs from in-process HMN (objective {objective} vs {})",
            inst.label, reference.objective
        )
    })
    .then_some(objective)
}

pub fn end_to_end(ctx: &Ctx, family: Family) -> Outcome {
    let mut out = Outcome::default();
    let cycle = family.cycle().len();
    let unit = family.block().max(cycle);
    let ops = crate::fixed_ops(ctx.seconds, family.ops_per_second(), unit);
    let setup = || {
        let _ = std::fs::remove_dir_all(&ctx.work);
        std::fs::create_dir_all(&ctx.work).expect("create work directory");
        let draws = (ops / cycle).min(family.max_draw_cycles());
        let instances = family.instances(ctx.seed, draws);
        let files = write_files(ctx, &instances, "mapping");
        (instances, files)
    };
    let pin = proc::Pin::one_cpu();
    let ((instances, files), mut setup_secs) = timed_setups(SETUPS, &setup);

    // Closed loop through the draws.
    let mut outputs = Vec::with_capacity(ops);
    let mut timed = Loop::default();
    timed.start();
    for i in (0..instances.len()).cycle().take(ops) {
        let (inst, f) = (&instances[i], &files[i]);
        let run = proc::run(&ctx.emumap, &f.args(MAP, None));
        out.attempted += 1;
        timed.push(run.ms);
        let bytes = run.ok.then(|| std::fs::read(&f.out).ok()).flatten();
        if bytes.is_none() {
            out.check(false, || {
                format!("{}: emumap map failed: {}", inst.label, run.stderr.trim())
            });
        }
        outputs.push((i, bytes));
    }
    timed.set_metrics(&mut out, family.block());
    // The set-up is timed as often again after the loop (its outputs are
    // read), so one burst of host contention cannot set the median.
    setup_secs.extend(timed_setups(SETUPS, &setup).1);
    out.set("setup_s", stats::median(&setup_secs));
    drop(pin);

    let references = crate::par_map(&instances, shipped);
    let mut objectives = Vec::new();
    for (i, bytes) in &outputs {
        match bytes
            .as_deref()
            .and_then(|b| check_output(&mut out, &instances[*i], b, &references[*i]))
        {
            Some(obj) => objectives.push(obj),
            None => out.failed += 1,
        }
    }
    out.set("objective_mean", stats::mean(&objectives));

    // The last row of the cycle is the family's largest.
    let largest = &instances[cycle - 1];
    let heap_path = ctx.path("heap_mapping.json");
    let ((), peak) = ALLOC.peak_during(|| {
        let phys: PhysicalTopology = serde_json::from_str(&largest.phys_json).expect("phys parses");
        let venv: VirtualEnvironment =
            serde_json::from_str(&largest.venv_json).expect("venv parses");
        let outcome = Hmn::new().map_with_cache(
            &phys,
            &venv,
            &mut SmallRng::seed_from_u64(2009),
            &mut MapCache::new(),
        );
        if let Ok(outcome) = outcome {
            let json = serde_json::to_string_pretty(&outcome.mapping).expect("mapping serializes");
            std::fs::write(&heap_path, json).expect("write mapping");
        }
    });
    out.set("peak_heap_mb", peak as f64 / (1024.0 * 1024.0));
    out
}

/// Parse → HMN → write of one instance in-process, in ms.
fn in_process_op(f: &Files) -> f64 {
    let t = Instant::now();
    let phys: PhysicalTopology =
        serde_json::from_str(&std::fs::read_to_string(&f.phys).expect("read phys"))
            .expect("phys parses");
    let venv: VirtualEnvironment =
        serde_json::from_str(&std::fs::read_to_string(&f.venv).expect("read venv"))
            .expect("venv parses");
    let outcome = Hmn::new()
        .map_with_cache(
            &phys,
            &venv,
            &mut SmallRng::seed_from_u64(2009),
            &mut MapCache::new(),
        )
        .expect("mappable");
    let json = serde_json::to_string_pretty(&outcome.mapping).expect("mapping serializes");
    std::fs::write(&f.out, json).expect("write mapping");
    t.elapsed().as_secs_f64() * 1e3
}

pub fn per_layer(ctx: &Ctx, family: Family) -> Outcome {
    let mut out = Outcome::default();
    let spans = Spans::new();
    let instances = spans.time("workloads.gen", || family.instances(ctx.seed, 1));
    let files = write_files(ctx, &instances, "mapping");
    let mut counters = Counters::default();
    let mut timing = ProcessTiming::default();
    let mut bytes = (0usize, 0usize);
    let mut serve_probe = ServeProbe::default();
    let mut witnesses = Vec::new();

    for (inst, f) in instances.iter().zip(&files) {
        out.attempted += 1;
        // Staged in-process parse → map → write, with a span per layer.
        let (phys, venv, read) = layers::parse_files(&spans, f);
        let staged = spans.time("core.map", || {
            StagedHmn::new(&spans).map_with_cache(
                &phys,
                &venv,
                &mut SmallRng::seed_from_u64(2009),
                &mut MapCache::new(),
            )
        });
        let Ok(staged) = staged else {
            out.failed += 1;
            out.check(false, || format!("{}: staged HMN failed", inst.label));
            continue;
        };
        let written = spans.time("model.io.write", || {
            let json = serde_json::to_string_pretty(&staged.mapping).expect("mapping serializes");
            std::fs::write(&f.out, &json).expect("write mapping");
            json.len()
        });
        bytes.0 += read;
        bytes.1 += written;
        let reference = shipped(inst);
        layers::check_staged(&mut out, &inst.label, &staged, &reference);
        counters.add_map(&staged.stats);

        timing.measure(&mut out, ctx, &inst.label, (f, MAP), || in_process_op(f));
        serve_probe.run_instance(&mut out, ctx, &spans, inst, &reference);
        witnesses.push(reference.mapping);
    }

    // The oracle at a fixed node budget on the smallest row: the paper's
    // instances are far beyond its reach, so this measures its per-node
    // cost at that scale (verdict Truncated).
    let mut exact = ExactProbe::default();
    let first = &instances[0];
    exact.run_instance(
        &mut out,
        &spans,
        &first.label,
        (&first.phys, &first.venv),
        Some(&witnesses[0]),
        layers::PROBE_NODE_BUDGET,
    );

    let totals = spans.totals();
    out.set("workloads.gen_ms", totals["workloads.gen"].total_ms);
    out.set("model.io.bytes_in", bytes.0 as f64 / instances.len() as f64);
    out.set(
        "model.io.bytes_out",
        bytes.1 as f64 / instances.len() as f64,
    );
    timing.set_metrics(&mut out);
    layers::set_stage_metrics(&mut out, &spans, &counters);
    serve_probe.set_metrics(&mut out, &spans);
    exact.set_metrics(&mut out);
    counters.merge_exact(&exact);
    layers::finish(
        &mut out,
        ctx,
        &spans,
        &counters,
        &["core.serve", "core.exact"],
    );
    out
}
