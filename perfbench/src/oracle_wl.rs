//! `oracle-smoke`: `emumap exact` certifying the built-in smoke family
//! (6-host ring, 8 guests), one process per instance.

use crate::inputs::{smoke_family, write_files, Files, Instance};
use crate::layers::{self, Counters, ExactProbe, ProcessTiming, ServeProbe};
use crate::spans::Spans;
use crate::staged::StagedHmn;
use crate::{proc, stats, timed_setups, Ctx, Loop, Outcome, ALLOC};
use emumap_core::{
    solve_exact_with, ExactConfig, ExactOutcome, ExactStatus, Hmn, MapCache, MapOutcome, Mapper,
};
use emumap_model::objective::mapping_objective;
use emumap_model::{validate_mapping, Mapping, PhysicalTopology, VirtualEnvironment};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Ops per second of `--seconds` in an untraced run: the loop takes about
/// three quarters of `--seconds` on a 2-vCPU host, leaving the rest for the
/// output checks. Every op certifies a different smoke instance, because
/// the solve effort varies by orders of magnitude between them.
const OPS_PER_SECOND: f64 = 10.0;
/// Ops per block of the timed loop (see `Loop::set_metrics`): the p90 of
/// a block has ten samples beyond it.
const BLOCK: usize = 100;
/// Smoke instances of a traced run.
const TRACED_INSTANCES: u64 = 12;

const EXACT: &[&str] = &["exact"];
/// Set-ups timed before the timed loop, and again after it.
const SETUPS: usize = 4;

/// What `emumap exact` does in-process: HMN's mapping seeds the search as
/// the incumbent, then the sequential engine certifies.
fn reference(
    phys: &PhysicalTopology,
    venv: &VirtualEnvironment,
) -> (Option<MapOutcome>, ExactOutcome) {
    let mut cache = MapCache::new();
    let hmn = Hmn::new()
        .map_with_cache(phys, venv, &mut SmallRng::seed_from_u64(2009), &mut cache)
        .ok();
    let witnesses: Vec<Mapping> = hmn.iter().map(|o| o.mapping.clone()).collect();
    let exact = solve_exact_with(phys, venv, &ExactConfig::default(), &mut cache, &witnesses);
    (hmn, exact)
}

fn status_line(status: ExactStatus) -> &'static str {
    match status {
        ExactStatus::Optimal => "OPTIMAL",
        ExactStatus::Infeasible => "INFEASIBLE",
        ExactStatus::Truncated => "TRUNCATED",
    }
}

/// The number after `prefix` on a report line of `emumap exact`.
fn reported(stdout: &str, prefix: &str) -> Option<f64> {
    let rest = stdout.lines().find_map(|l| l.strip_prefix(prefix))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Checks one run against the in-process `reference` of the same
/// instance: the verdict and the node count are the reference's; an
/// Infeasible verdict never stands beside a feasible HMN mapping; the
/// written mapping is the reference's best, passes Eqs. 1–9, and its
/// recomputed Eq. 10 objective equals the reference optimum, lies between
/// the lower bound and the HMN objective, and matches the reported values
/// (the report prints three decimals, hence the 5e-4). Returns the
/// objective of a certified optimum.
fn check_output(
    out: &mut Outcome,
    inst: &Instance,
    stdout: &str,
    written: Option<&[u8]>,
    (hmn, expected): &(Option<MapOutcome>, ExactOutcome),
) -> Option<f64> {
    let label = &inst.label;
    let status = [
        ExactStatus::Optimal,
        ExactStatus::Infeasible,
        ExactStatus::Truncated,
    ]
    .into_iter()
    .find(|s| stdout.contains(&format!("status          : {}", status_line(*s))));
    let nodes = reported(stdout, "search          :");
    let same_search =
        status == Some(expected.status) && nodes == Some(expected.stats.nodes_expanded as f64);
    if !out.check(same_search, || {
        format!(
            "{label}: verdict {status:?} after {nodes:?} nodes, in-process {:?} after {}",
            expected.status, expected.stats.nodes_expanded
        )
    }) {
        return None;
    }
    if !out.check(
        status != Some(ExactStatus::Infeasible) || hmn.is_none(),
        || format!("{label}: Infeasible, but HMN maps the instance"),
    ) {
        return None;
    }
    let mapping: Option<Mapping> =
        written.and_then(|b| serde_json::from_str(&String::from_utf8_lossy(b)).ok());
    let Some(best) = &expected.best else {
        out.check(mapping.is_none(), || {
            format!("{label}: a mapping was written, but none was found in-process")
        });
        return None;
    };
    let Some(mapping) = mapping else {
        out.check(false, || format!("{label}: no readable mapping written"));
        return None;
    };
    if let Err(v) = validate_mapping(&inst.phys, &inst.venv, &mapping) {
        out.check(false, || {
            format!("{label}: invalid mapping: {:?}", v.first())
        });
        return None;
    }
    let objective = mapping_objective(&inst.phys, &inst.venv, &mapping);
    let hmn_objective = hmn.as_ref().map_or(f64::INFINITY, |o| o.objective);
    let printed = reported(stdout, "objective (Eq10):").unwrap_or(f64::NAN);
    let lower = reported(stdout, "lower bound     :").unwrap_or(f64::NAN);
    let ok = mapping == best.mapping
        && objective == best.objective
        && (objective - printed).abs() <= 5e-4
        && (lower - expected.lower_bound).abs() <= 5e-4
        && expected.lower_bound <= objective
        && objective <= hmn_objective;
    out.check(ok, || {
        format!(
            "{label}: written objective {objective} (reported {printed}, in-process {}), lower bound {lower} (in-process {}), HMN {hmn_objective}",
            best.objective, expected.lower_bound
        )
    });
    (ok && status == Some(ExactStatus::Optimal)).then_some(objective)
}

pub fn end_to_end(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ops = crate::fixed_ops(ctx.seconds, OPS_PER_SECOND, BLOCK);
    let setup = || {
        let instances = smoke_family(ctx.seed, ops as u64);
        let files = write_files(ctx, &instances, "optimum");
        (instances, files)
    };
    let pin = proc::Pin::one_cpu();
    let ((instances, files), mut setup_secs) = timed_setups(SETUPS, &setup);

    // Closed loop, one op per instance.
    let mut runs = Vec::with_capacity(ops);
    let mut timed = Loop::default();
    timed.start();
    for (inst, f) in instances.iter().zip(&files) {
        let run = proc::run(&ctx.emumap, &f.args(EXACT, None));
        out.attempted += 1;
        timed.push(run.ms);
        if !run.ok {
            out.check(false, || {
                format!("{}: emumap exact failed: {}", inst.label, run.stderr.trim())
            });
        }
        let written = run.ok.then(|| std::fs::read(&f.out).ok()).flatten();
        runs.push((run.ok, run.stdout, written));
    }
    timed.set_metrics(&mut out, BLOCK);
    // The set-up is timed as often again after the loop (its outputs are
    // read), so one burst of host contention cannot set the median.
    setup_secs.extend(timed_setups(SETUPS, &setup).1);
    out.set("setup_s", stats::median(&setup_secs));
    drop(pin);

    let references = crate::par_map(&instances, |inst| reference(&inst.phys, &inst.venv));
    let mut objectives = Vec::new();
    let mut certified = 0;
    for ((inst, (ok, stdout, written)), expected) in instances.iter().zip(&runs).zip(&references) {
        let errors = out.errors.len();
        if let Some(obj) = check_output(&mut out, inst, stdout, written.as_deref(), expected) {
            objectives.push(obj);
        }
        if !ok || out.errors.len() > errors {
            out.failed += 1;
        }
        certified += u64::from(expected.1.is_certified());
    }
    out.set("objective_mean", stats::mean(&objectives));
    out.note(format!(
        "{} instances run, {certified} certified, {} optima",
        runs.len(),
        objectives.len()
    ));

    let first = &instances[0];
    let heap_path = ctx.path("heap_optimum.json");
    let ((), peak) = ALLOC.peak_during(|| {
        let phys: PhysicalTopology = serde_json::from_str(&first.phys_json).expect("phys parses");
        let venv: VirtualEnvironment = serde_json::from_str(&first.venv_json).expect("venv parses");
        let (_, exact) = reference(&phys, &venv);
        if let Some(best) = exact.best {
            let json = serde_json::to_string_pretty(&best.mapping).expect("mapping serializes");
            std::fs::write(&heap_path, json).expect("write optimum");
        }
    });
    out.set("peak_heap_mb", peak as f64 / (1024.0 * 1024.0));
    out
}

/// Parse → HMN → sequential solve → write of one instance in-process, in ms.
fn in_process_op(f: &Files) -> f64 {
    let t = Instant::now();
    let phys: PhysicalTopology =
        serde_json::from_str(&std::fs::read_to_string(&f.phys).expect("read phys"))
            .expect("phys parses");
    let venv: VirtualEnvironment =
        serde_json::from_str(&std::fs::read_to_string(&f.venv).expect("read venv"))
            .expect("venv parses");
    if let (
        _,
        ExactOutcome {
            best: Some(best), ..
        },
    ) = reference(&phys, &venv)
    {
        let json = serde_json::to_string_pretty(&best.mapping).expect("mapping serializes");
        std::fs::write(&f.out, json).expect("write optimum");
    }
    t.elapsed().as_secs_f64() * 1e3
}

pub fn per_layer(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let spans = Spans::new();
    let instances = spans.time("workloads.gen", || smoke_family(ctx.seed, TRACED_INSTANCES));
    let files = write_files(ctx, &instances, "optimum");
    let mut counters = Counters::default();
    let mut exact = ExactProbe::default();
    let mut serve_probe = ServeProbe::default();
    let mut timing = ProcessTiming::default();
    let mut bytes = (0usize, 0usize);

    for (inst, f) in instances.iter().zip(&files) {
        out.attempted += 1;
        // Staged in-process parse → HMN incumbent → certify → write.
        let (phys, venv, read) = layers::parse_files(&spans, f);
        let staged = spans.time("core.map", || {
            StagedHmn::new(&spans).map_with_cache(
                &phys,
                &venv,
                &mut SmallRng::seed_from_u64(2009),
                &mut MapCache::new(),
            )
        });
        let hmn = Hmn::new()
            .map_with_cache(
                &phys,
                &venv,
                &mut SmallRng::seed_from_u64(2009),
                &mut MapCache::new(),
            )
            .ok();
        match (&staged, &hmn) {
            (Ok(s), Some(h)) => {
                layers::check_staged(&mut out, &inst.label, s, h);
                counters.add_map(&s.stats);
            }
            (Err(_), None) => {}
            _ => {
                out.failed += 1;
                out.check(false, || {
                    format!(
                        "{}: staged replay and HMN disagree on feasibility",
                        inst.label
                    )
                });
            }
        }
        let witness = hmn.as_ref().map(|h| &h.mapping);
        let solved = exact.run_instance(
            &mut out,
            &spans,
            &inst.label,
            (&phys, &venv),
            witness,
            ExactConfig::default().max_nodes,
        );
        bytes.0 += read;
        bytes.1 += spans.time("model.io.write", || {
            solved.best.as_ref().map_or(0, |best| {
                let json = serde_json::to_string_pretty(&best.mapping).expect("mapping serializes");
                std::fs::write(&f.out, &json).expect("write optimum");
                json.len()
            })
        });

        timing.measure(&mut out, ctx, &inst.label, (f, EXACT), || in_process_op(f));
        if let Some(h) = &hmn {
            serve_probe.run_instance(&mut out, ctx, &spans, inst, h);
        }
    }

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
        &["core.serve", "core.exact.epoch1"],
    );
    out
}
