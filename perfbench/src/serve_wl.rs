//! `serve-churn`: a seeded stream of apply / remove / status requests
//! replayed by one closed-loop client against one long-lived
//! `emumap serve` on a 1024-host cluster.

use crate::inputs::{serve_cluster, tenant_pool, SERVE_HOSTS};
use crate::layers::{self, Counters, ExactProbe, ServeProbe};
use crate::spans::Spans;
use crate::staged::{Recording, StagedHmn, TimedMapper};
use crate::{proc, stats, Ctx, Loop, Outcome, ALLOC};
use emumap_core::serve::{ApplyOutcome, Session};
use emumap_core::{Hmn, Mapper};
use emumap_model::{PhysicalTopology, VirtualEnvironment};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;

/// Session seed passed to the daemon and the in-process replay.
const SESSION_SEED: u64 = 2009;
/// Requests sent untimed before the timed part of the stream: the
/// cluster fills, from empty, until applies start to be refused (first
/// rejection at about request 450), so that every timed request meets the
/// steady occupancy of a full cluster rather than a seed-dependent share
/// of the filling phase.
const WARMUP: usize = 600;
/// Timed requests per second of `--seconds`; the count depends on
/// `--seconds` only. With the warm-up, the set-ups and the in-process
/// replay that checks every reply, a run takes about 1.5 × `--seconds` on
/// a 2-vCPU host.
const REQUESTS_PER_SECOND: f64 = 75.0;
/// Every `STATUS_EVERY`-th request is a `status`.
const STATUS_EVERY: usize = 50;
/// Requests per block of the timed part (see `Loop::set_metrics`). About
/// two in three timed requests are removals (~1 ms) or refused applies
/// (1-3 ms) and one in three an admitted apply (~6 ms), so the median lies
/// among the refusals: a block must be long enough that the binomial
/// spread of its share of each kind moves the median little (300
/// requests: ±3 %).
const BLOCK: usize = 6 * STATUS_EVERY;

/// Requests of a run's stream, warm-up included.
fn requests(ctx: &Ctx) -> usize {
    WARMUP + crate::fixed_ops(ctx.seconds, REQUESTS_PER_SECOND, BLOCK)
}

#[derive(Clone)]
enum Request {
    Apply { id: String, tenant: usize },
    Remove { id: String },
    Status,
}

/// The arrival/departure stream of the repository's serve bench
/// (`crates/bench/benches/serve.rs`): an arrival with probability 0.7,
/// otherwise the departure of a uniformly chosen live tenant; every
/// arrival is a fresh tenant. Every `STATUS_EVERY`-th request asks for
/// `status` instead. Arrivals outnumber departures, so the cluster fills
/// and then stays at the occupancy where applies are refused.
struct Stream {
    rng: SmallRng,
    live: Vec<String>,
    sent: usize,
    next_tenant: usize,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            rng: SmallRng::seed_from_u64(seed ^ 0x5e7e_c4a2_0000_0001),
            live: Vec::new(),
            sent: 0,
            next_tenant: 0,
        }
    }

    fn next(&mut self) -> Request {
        self.sent += 1;
        if self.sent.is_multiple_of(STATUS_EVERY) {
            return Request::Status;
        }
        if self.live.is_empty() || self.rng.gen_bool(0.7) {
            let tenant = self.next_tenant;
            self.next_tenant += 1;
            Request::Apply {
                id: format!("t{tenant}"),
                tenant,
            }
        } else {
            let k = self.rng.gen_range(0..self.live.len());
            Request::Remove {
                id: self.live.swap_remove(k),
            }
        }
    }

    /// Feeds back a reply: admitted tenants become live.
    fn observe(&mut self, request: &Request, reply: &str) {
        if let Request::Apply { id, .. } = request {
            if reply.starts_with("{\"applied\"") {
                self.live.push(id.clone());
            }
        }
    }
}

fn line(request: &Request, pool: &[(VirtualEnvironment, String)]) -> String {
    match request {
        Request::Apply { id, tenant } => {
            format!(
                "{{\"apply\":{{\"id\":\"{id}\",\"venv\":{}}}}}",
                pool[*tenant].1
            )
        }
        Request::Remove { id } => format!("{{\"remove\":{{\"id\":\"{id}\"}}}}"),
        Request::Status => "{\"status\":{}}".to_string(),
    }
}

fn reply(verb: &str, payload: Value) -> String {
    serde_json::to_string(&Value::Object(vec![(verb.to_string(), payload)]))
        .expect("value serializes")
}

fn with_id(id: &str, payload: Value) -> Value {
    let mut fields = vec![("id".to_string(), Value::Str(id.to_string()))];
    if let Value::Object(rest) = payload {
        fields.extend(rest);
    }
    Value::Object(fields)
}

/// One request through an in-process `Session`, rendered as the daemon
/// renders its reply. The inline environment is parsed from its JSON, as
/// the daemon does.
fn replay_one(
    session: &mut Session,
    mapper: &dyn Mapper,
    request: &Request,
    pool: &[(VirtualEnvironment, String)],
    spans: Option<&Spans>,
) -> String {
    match request {
        Request::Apply { id, tenant } => {
            let venv: VirtualEnvironment = timed(spans, "model.io.parse", || {
                serde_json::from_str(&pool[*tenant].1).expect("venv parses")
            });
            let outcome = timed(spans, "core.serve.apply", || {
                session.apply(id, venv, mapper)
            });
            timed(spans, "model.io.write", || match outcome {
                ApplyOutcome::Admitted(report) => reply("applied", with_id(id, report.to_value())),
                ApplyOutcome::Rejected { reason } => reply(
                    "rejected",
                    Value::Object(vec![
                        ("id".to_string(), Value::Str(id.clone())),
                        ("reason".to_string(), Value::Str(reason)),
                    ]),
                ),
            })
        }
        Request::Remove { id } => match timed(spans, "core.serve.remove", || session.remove(id)) {
            Ok(report) => reply("removed", with_id(id, report.to_value())),
            Err(e) => reply(
                "error",
                Value::Object(vec![("reason".to_string(), Value::Str(e.to_string()))]),
            ),
        },
        Request::Status => reply("status", session.status().to_value()),
    }
}

/// Runs `f` in a span named `name` when the replay is traced.
fn timed<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

struct Setup {
    phys: PhysicalTopology,
    phys_path: PathBuf,
    pool: Vec<(VirtualEnvironment, String)>,
}

fn generate(ctx: &Ctx) -> Setup {
    let (phys, phys_json) = serve_cluster(ctx.seed);
    let phys_path = ctx.write("serve_phys.json", &phys_json);
    // One tenant per request covers every arrival.
    let pool = tenant_pool(ctx.seed, requests(ctx));
    Setup {
        phys,
        phys_path,
        pool,
    }
}

/// Generates the inputs and starts the daemon, up to its first `status`
/// reply.
fn start(ctx: &Ctx, trace: Option<&PathBuf>) -> (Setup, Option<proc::Daemon>) {
    let setup = generate(ctx);
    let daemon = proc::Daemon::spawn(&ctx.emumap, &setup.phys_path, SESSION_SEED, trace)
        .ok()
        .and_then(|mut d| {
            let (status, _) = d.request("{\"status\":{}}").ok()?;
            status.starts_with("{\"status\"").then_some(d)
        });
    (setup, daemon)
}

/// Set-ups timed before the timed loop, and again after it.
const SETUPS: usize = 2;

/// Times `SETUPS` set-ups into `secs`, shutting each daemon down, untimed,
/// before the next; returns the last set-up and its daemon.
fn timed_starts(ctx: &Ctx, secs: &mut Vec<f64>) -> (Setup, Option<proc::Daemon>) {
    let mut current = None;
    for _ in 0..SETUPS {
        if let Some((_, Some(d))) = current.take() {
            let _ = proc::Daemon::shutdown(d);
        }
        let t = Instant::now();
        current = Some(start(ctx, None));
        secs.push(t.elapsed().as_secs_f64());
    }
    current.expect("SETUPS >= 1")
}

/// Checks the final `status` (no leaked capacity) and an orderly shutdown.
fn stop(out: &mut Outcome, mut daemon: proc::Daemon) {
    match daemon.request("{\"status\":{}}") {
        Ok((status, _)) => {
            out.check(status.contains("\"leak\":0.0"), || {
                format!("final status reports a leak: {status:.300}")
            });
        }
        Err(e) => {
            out.check(false, || format!("final status failed: {e}"));
        }
    }
    out.check(daemon.shutdown(), || {
        "emumap serve did not shut down cleanly".to_string()
    });
}

/// Replays `log` in-process on `session` and compares every reply byte for
/// byte; returns the in-process time of each request.
fn check_replay(
    out: &mut Outcome,
    session: &mut Session,
    setup: &Setup,
    mapper: &dyn Mapper,
    log: &[(Request, String)],
    spans: Option<&Spans>,
) -> Vec<f64> {
    let mut inproc_ms = Vec::with_capacity(log.len());
    let mut mismatches = 0u64;
    for (request, daemon_reply) in log {
        let t = Instant::now();
        let expected = replay_one(session, mapper, request, &setup.pool, spans);
        inproc_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if expected != *daemon_reply {
            mismatches += 1;
            if mismatches == 1 {
                out.check(false, || {
                    format!("daemon reply differs from the in-process Session:\n    daemon  : {daemon_reply:.300}\n    session : {expected:.300}")
                });
            }
        }
    }
    out.failed += mismatches;
    inproc_ms
}

fn check_no_leak(out: &mut Outcome, session: &mut Session) {
    let leak = session.status().leak;
    out.check(leak == 0.0, || format!("in-process replay leaks {leak}"));
}

fn objective_of(reply: &str) -> Option<f64> {
    let value = serde_json::value_from_str(reply).ok()?;
    f64::from_value(value.get("applied")?.get("objective")?).ok()
}

pub fn end_to_end(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_secs = Vec::new();
    let pin = proc::Pin::one_cpu();
    let (setup, daemon) = timed_starts(ctx, &mut setup_secs);
    let Some(daemon) = daemon else {
        out.check(false, || "emumap serve did not start".to_string());
        return out;
    };

    let mut timed = Loop::default();
    let (log, _) = replay_stream(&mut out, ctx, &setup, daemon, None, Some(&mut timed));
    // The set-up is timed as often again after the loop, so one burst of
    // host contention cannot set the median.
    if let (_, Some(d)) = timed_starts(ctx, &mut setup_secs) {
        let _ = d.shutdown();
    }
    out.set("setup_s", stats::median(&setup_secs));
    drop(pin);
    out.attempted = requests(ctx) as u64;
    out.failed += out.attempted - log.len() as u64;
    out.failed += log
        .iter()
        .filter(|(_, r)| r.starts_with("{\"error\""))
        .count() as u64;
    timed.set_metrics(&mut out, BLOCK);
    let mut by_reply: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for ((_, reply), ms) in log[WARMUP.min(log.len())..].iter().zip(&timed.latencies_ms) {
        let verb = reply
            .get(2..)
            .and_then(|r| r.split('"').next())
            .unwrap_or("");
        by_reply.entry(verb).or_default().push(*ms);
    }
    out.note(format!(
        "timed requests by reply: {}",
        by_reply
            .iter()
            .map(|(verb, ms)| format!("{} {verb} (p50 {:.3} ms)", ms.len(), stats::median(ms)))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let objectives: Vec<f64> = log.iter().filter_map(|(_, r)| objective_of(r)).collect();
    let applies = log
        .iter()
        .filter(|(r, _)| matches!(r, Request::Apply { .. }))
        .count();
    let rejected = log
        .iter()
        .filter(|(_, r)| r.starts_with("{\"rejected\""))
        .count();
    out.set("objective_mean", stats::mean(&objectives));
    out.note(format!(
        "{} requests: {applies} applies ({rejected} rejected, reject rate {:.3}), first rejection at request {}",
        log.len(),
        rejected as f64 / applies.max(1) as f64,
        log.iter()
            .position(|(_, r)| r.starts_with("{\"rejected\""))
            .map_or("-".to_string(), |i| (i + 1).to_string())
    ));

    // The in-process replay checks every reply; the peak live heap is that
    // of the replay.
    let hmn = Hmn::new();
    let (mut session, peak) = ALLOC.peak_during(|| {
        let mut session = Session::new(setup.phys.clone(), SESSION_SEED);
        check_replay(&mut out, &mut session, &setup, &hmn, &log, None);
        session
    });
    check_no_leak(&mut out, &mut session);
    out.set("peak_heap_mb", peak as f64 / (1024.0 * 1024.0));
    out
}

/// Sends the run's stream to `daemon` (or, with `script`, the requests of
/// an earlier log), then checks the final status and the shutdown.
/// Returns the log of requests and replies and each request's latency;
/// `timed`, when given, records the requests after the warm-up.
/// An unscripted `error` reply fails the run.
fn replay_stream(
    out: &mut Outcome,
    ctx: &Ctx,
    setup: &Setup,
    mut daemon: proc::Daemon,
    script: Option<&[(Request, String)]>,
    mut timed: Option<&mut Loop>,
) -> (Vec<(Request, String)>, Vec<f64>) {
    let mut stream = Stream::new(ctx.seed);
    let mut log = Vec::new();
    let mut ms = Vec::new();
    for i in 0..requests(ctx) {
        let request = match script {
            Some(s) => s[i].0.clone(),
            None => stream.next(),
        };
        if i == WARMUP {
            if let Some(l) = timed.as_deref_mut() {
                l.start();
            }
        }
        match daemon.request(&line(&request, &setup.pool)) {
            Ok((reply, t)) => {
                ms.push(t);
                if i >= WARMUP {
                    if let Some(l) = timed.as_deref_mut() {
                        l.push(t);
                    }
                }
                out.check(!reply.starts_with("{\"error\""), || {
                    format!("unscripted protocol error: {reply:.200}")
                });
                stream.observe(&request, &reply);
                log.push((request, reply));
            }
            Err(e) => {
                out.check(false, || format!("daemon request failed: {e}"));
                break;
            }
        }
    }
    stop(out, daemon);
    (log, ms)
}

pub fn per_layer(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let spans = Spans::new();
    let setup = spans.time("workloads.gen", || generate(ctx));

    // The run's stream against an untraced daemon, then the same requests
    // against a traced one and through two in-process Sessions.
    let run_stream = |out: &mut Outcome, trace: Option<&PathBuf>, script| match start(ctx, trace).1
    {
        Some(daemon) => replay_stream(out, ctx, &setup, daemon, script, None),
        None => {
            out.check(false, || "emumap serve did not start".to_string());
            (Vec::new(), Vec::new())
        }
    };
    let (log, plain_ms) = run_stream(&mut out, None, None);
    out.attempted = log.len() as u64;
    let trace_file = ctx.path("trace.jsonl");
    let (traced_log, traced_ms) = run_stream(&mut out, Some(&trace_file), Some(&log));
    out.check(
        traced_log
            .iter()
            .map(|(_, r)| r)
            .eq(log.iter().map(|(_, r)| r)),
        || "traced daemon replied differently".to_string(),
    );
    out.check(log.len() == requests(ctx), || {
        "stream cut short".to_string()
    });

    let staged = StagedHmn::new(&spans);
    let mapper = TimedMapper {
        inner: &staged,
        spans: &spans,
    };
    let mut session = Session::new(setup.phys.clone(), SESSION_SEED);
    let inproc_ms = check_replay(&mut out, &mut session, &setup, &mapper, &log, Some(&spans));
    check_no_leak(&mut out, &mut session);
    // The shipped mapper over the same requests: apply by apply, its
    // counters must repeat those of the staged replay.
    let hmn = Hmn::new();
    let shipped = Recording::new(&hmn);
    let mut again = Session::new(setup.phys.clone(), SESSION_SEED);
    check_replay(&mut out, &mut again, &setup, &shipped, &log, None);
    layers::check_repeat(
        &mut out,
        "serve replay",
        &staged.stats.borrow(),
        &shipped.stats.borrow(),
    );

    let mut probe = ServeProbe::default();
    let mut live = 0i64;
    for ((request, reply), (&p, &q)) in log.iter().zip(plain_ms.iter().zip(&inproc_ms)) {
        probe.protocol_ms.push(p - q);
        match request {
            Request::Apply { .. } => {
                probe.applies += 1;
                if reply.starts_with("{\"applied\"") {
                    live += 1;
                } else {
                    probe.rejects += 1;
                }
            }
            Request::Remove { .. } => live -= 1,
            Request::Status => {}
        }
        probe.active.push(live as f64);
    }

    let mut counters = Counters::default();
    for stats in staged.stats.borrow().iter() {
        counters.add_map(stats);
    }
    // The oracle at a fixed node budget on one tenant against the whole
    // cluster: far beyond its reach, so this measures per-node cost.
    let mut exact = ExactProbe::default();
    let (venv, _) = &setup.pool[0];
    let witness = Hmn::new()
        .map(
            &setup.phys,
            venv,
            &mut SmallRng::seed_from_u64(SESSION_SEED),
        )
        .ok()
        .map(|o| o.mapping);
    exact.run_instance(
        &mut out,
        &spans,
        "tenant 0",
        (&setup.phys, venv),
        witness.as_ref(),
        layers::PROBE_NODE_BUDGET,
    );

    let totals = spans.totals();
    let bytes_in: usize = log.iter().map(|(r, _)| line(r, &setup.pool).len()).sum();
    let bytes_out: usize = log.iter().map(|(_, r)| r.len()).sum();
    out.set("workloads.gen_ms", totals["workloads.gen"].total_ms);
    out.set("model.io.bytes_in", bytes_in as f64 / log.len() as f64);
    out.set("model.io.bytes_out", bytes_out as f64 / log.len() as f64);
    out.set("cli.overhead_ms", stats::mean(&probe.protocol_ms));
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_ms.iter().sum::<f64>() / plain_ms.iter().sum::<f64>() - 1.0),
    );
    layers::set_stage_metrics(&mut out, &spans, &counters);
    probe.set_metrics(&mut out, &spans);
    exact.set_metrics(&mut out);
    counters.merge_exact(&exact);
    out.note(format!(
        "cluster: {SERVE_HOSTS} hosts; {} requests replayed",
        log.len()
    ));
    layers::finish(&mut out, ctx, &spans, &counters, &["core.exact"]);
    out
}
