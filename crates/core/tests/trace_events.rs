//! Contract tests for the observability layer: the trace is a *passive*
//! observer of the pipeline.
//!
//! Two properties matter. First, attaching a sink must not change any
//! mapping outcome (the tracer is not allowed to influence decisions).
//! Second, the *decision* content of a trace must be deterministic: two
//! runs that differ only in cache warmth must emit identical event
//! sequences once the volatile fields (wall-clock timings and
//! cache-warmth counters) are redacted.

use emumap_core::{build_mapper, Hmn, MapCache, MapStats, Mapper, MapperConfig, MAPPERS};
use emumap_trace::{EventSink, Phase, PhaseCounters, TraceEvent, Tracer};
use emumap_workloads::{instantiate, ClusterSpec, Scenario, WorkloadKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

/// Sink that shares its event log with the test through an `Arc`, since a
/// boxed `dyn EventSink` cannot be inspected after `Tracer::take_sink`.
struct VecSink(Arc<Mutex<Vec<TraceEvent>>>);

impl EventSink for VecSink {
    fn record(&mut self, event: TraceEvent) {
        self.0.lock().unwrap().push(event);
    }
}

fn shared_sink() -> (Arc<Mutex<Vec<TraceEvent>>>, Tracer) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let tracer = Tracer::new(Box::new(VecSink(Arc::clone(&events))));
    (events, tracer)
}

fn paper_instance() -> (
    emumap_model::PhysicalTopology,
    emumap_model::VirtualEnvironment,
) {
    let scenario = Scenario {
        ratio: 2.5,
        density: 0.02,
        workload: WorkloadKind::HighLevel,
    };
    let inst = instantiate(
        &ClusterSpec::paper(),
        ClusterSpec::paper_torus(),
        &scenario,
        0,
        2009,
    );
    (inst.phys, inst.venv)
}

#[test]
fn warm_and_cold_caches_emit_identical_redacted_event_sequences() {
    let (phys, venv) = paper_instance();
    let mapper = Hmn::new();
    let mut cache = MapCache::new();

    // Cold: first run on a fresh cache computes every Dijkstra table.
    let (cold_events, tracer) = shared_sink();
    cache.trace = tracer;
    let cold = mapper
        .map_with_cache(&phys, &venv, &mut SmallRng::seed_from_u64(1), &mut cache)
        .expect("cold map");

    // Warm: same trial again on the now-populated cache.
    let (warm_events, tracer) = shared_sink();
    cache.trace = tracer;
    let warm = mapper
        .map_with_cache(&phys, &venv, &mut SmallRng::seed_from_u64(1), &mut cache)
        .expect("warm map");

    assert_eq!(
        cold.mapping, warm.mapping,
        "cache must be semantically invisible"
    );

    let cold_events = cold_events.lock().unwrap();
    let warm_events = warm_events.lock().unwrap();
    // The raw sequences differ (the warm run answers `ar[]` lookups from
    // the cache, and every timing is wall-clock); the redacted sequences
    // must not.
    let redact = |events: &[TraceEvent]| -> Vec<TraceEvent> {
        events.iter().map(TraceEvent::redact_volatile).collect()
    };
    assert_eq!(redact(&cold_events), redact(&warm_events));

    // Sanity: the redaction is doing real work — cache warmth is visible
    // in the un-redacted Networking span.
    let networking_counters = |events: &[TraceEvent]| {
        events
            .iter()
            .find_map(|e| match e {
                TraceEvent::PhaseEnd {
                    phase: Phase::Networking,
                    counters,
                    ..
                } => Some(*counters),
                _ => None,
            })
            .expect("networking span")
    };
    let cold_net = networking_counters(&cold_events);
    let warm_net = networking_counters(&warm_events);
    assert!(cold_net.dijkstra_runs > 0, "cold run computes tables");
    assert!(
        warm_net.cache_hits > cold_net.cache_hits,
        "warm run answers more lookups from the cache ({} vs {})",
        warm_net.cache_hits,
        cold_net.cache_hits
    );
}

#[test]
fn attaching_a_sink_does_not_change_the_outcome() {
    let (phys, venv) = paper_instance();
    let mapper = Hmn::new();

    let untraced = mapper
        .map_with_cache(
            &phys,
            &venv,
            &mut SmallRng::seed_from_u64(3),
            &mut MapCache::new(),
        )
        .expect("untraced map");

    let mut cache = MapCache::new();
    let (events, tracer) = shared_sink();
    cache.trace = tracer;
    let traced = mapper
        .map_with_cache(&phys, &venv, &mut SmallRng::seed_from_u64(3), &mut cache)
        .expect("traced map");

    assert_eq!(untraced.mapping, traced.mapping);
    assert_eq!(untraced.objective, traced.objective);
    assert!(
        !events.lock().unwrap().is_empty(),
        "the traced run did emit"
    );
}

#[test]
fn hmn_trace_has_all_three_phase_spans_and_per_link_outcomes() {
    let (phys, venv) = paper_instance();
    let mut cache = MapCache::new();
    let (events, tracer) = shared_sink();
    cache.trace = tracer;
    let outcome = Hmn::new()
        .map_with_cache(&phys, &venv, &mut SmallRng::seed_from_u64(5), &mut cache)
        .expect("map");

    let events = events.lock().unwrap();
    assert!(matches!(events.first(), Some(TraceEvent::MapStart { .. })));
    assert!(matches!(
        events.last(),
        Some(TraceEvent::MapEnd {
            ok: true,
            objective: Some(_),
            ..
        })
    ));

    // Spans open and close in pipeline order.
    let spans: Vec<(bool, Phase)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PhaseStart { phase } => Some((true, *phase)),
            TraceEvent::PhaseEnd { phase, .. } => Some((false, *phase)),
            _ => None,
        })
        .collect();
    assert_eq!(
        spans,
        vec![
            (true, Phase::Hosting),
            (false, Phase::Hosting),
            (true, Phase::Migration),
            (false, Phase::Migration),
            (true, Phase::Networking),
            (false, Phase::Networking),
        ]
    );

    // Per-link events reconcile with the run's statistics.
    let routed = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::LinkRouted { .. }))
        .count();
    let intra = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::LinkIntraHost { .. }))
        .count();
    assert_eq!(routed, outcome.stats.routed_links);
    assert_eq!(intra, outcome.stats.intra_host_links);
    assert_eq!(routed + intra, venv.link_count());

    // Phase counters reconcile with the run's statistics too.
    for e in events.iter() {
        match e {
            TraceEvent::PhaseEnd {
                phase: Phase::Hosting,
                counters,
                ..
            } => {
                assert_eq!(
                    counters.colocation_hits,
                    outcome.stats.colocation_hits as u64
                );
                assert_eq!(
                    counters.first_fit_fallbacks,
                    outcome.stats.first_fit_fallbacks as u64
                );
            }
            TraceEvent::PhaseEnd {
                phase: Phase::Migration,
                counters,
                ..
            } => {
                assert_eq!(counters.moves_accepted, outcome.stats.migrations as u64);
                assert_eq!(
                    counters.moves_rejected,
                    outcome.stats.migrations_rejected as u64
                );
            }
            TraceEvent::PhaseEnd {
                phase: Phase::Networking,
                counters,
                ..
            } => {
                assert_eq!(
                    counters.astar_expansions,
                    outcome.stats.astar_expansions as u64
                );
            }
            _ => {}
        }
    }
}

/// More memory demanded than the cluster has, though every guest fits a
/// host on its own: each mapper takes its error exit (Hosting, rounding
/// or retry exhaustion).
fn memory_infeasible_instance() -> (
    emumap_model::PhysicalTopology,
    emumap_model::VirtualEnvironment,
) {
    use emumap_model::{
        GuestSpec, HostSpec, Kbps, LinkSpec, MemMb, Millis, Mips, PhysicalTopology, StorGb,
        VLinkSpec, VirtualEnvironment, VmmOverhead,
    };
    let phys = PhysicalTopology::from_shape(
        &emumap_graph::generators::line(2),
        std::iter::repeat(HostSpec::new(Mips(1000.0), MemMb(1024), StorGb(100.0))),
        LinkSpec::new(Kbps(1000.0), Millis(5.0)),
        VmmOverhead::NONE,
    );
    let mut venv = VirtualEnvironment::new();
    let guests: Vec<_> = (0..5)
        .map(|_| venv.add_guest(GuestSpec::new(Mips(10.0), MemMb(512), StorGb(1.0))))
        .collect();
    for pair in guests.windows(2) {
        venv.add_link(pair[0], pair[1], VLinkSpec::new(Kbps(10.0), Millis(60.0)));
    }
    (phys, venv)
}

/// A `MapStats` counter's name and value, with the `PhaseCounters` field
/// it is the per-run sum of.
type CounterView = (&'static str, usize, fn(&PhaseCounters) -> u64);

fn counter_views(stats: &MapStats) -> Vec<CounterView> {
    vec![
        ("colocation_hits", stats.colocation_hits, |c| {
            c.colocation_hits
        }),
        ("first_fit_fallbacks", stats.first_fit_fallbacks, |c| {
            c.first_fit_fallbacks
        }),
        ("migrations", stats.migrations, |c| c.moves_accepted),
        ("migrations_rejected", stats.migrations_rejected, |c| {
            c.moves_rejected
        }),
        ("dfs_backtracks", stats.dfs_backtracks, |c| c.dfs_backtracks),
        ("routed_links", stats.routed_links, |c| c.routed_links),
        ("intra_host_links", stats.intra_host_links, |c| {
            c.intra_host_links
        }),
        ("astar_expansions", stats.astar_expansions, |c| {
            c.astar_expansions
        }),
        ("astar_pushed", stats.astar_pushed, |c| c.astar_pushed),
        ("dijkstra_runs", stats.dijkstra_runs, |c| c.dijkstra_runs),
        ("ar_cache_hits", stats.ar_cache_hits, |c| c.cache_hits),
        ("hop_tables", stats.hop_tables, |c| c.hop_tables),
        ("scratch_reuses", stats.scratch_reuses, |c| c.scratch_reuses),
        ("proposals_evaluated", stats.proposals_evaluated, |c| {
            c.proposals_evaluated
        }),
        ("delta_evaluations", stats.delta_evaluations, |c| {
            c.delta_evaluations
        }),
        ("full_evaluations", stats.full_evaluations, |c| {
            c.full_evaluations
        }),
        ("replica_exchanges", stats.replica_exchanges, |c| {
            c.replica_exchanges
        }),
        ("exchange_accepts", stats.exchange_accepts, |c| {
            c.exchange_accepts
        }),
        ("lp_iterations", stats.lp_iterations, |c| c.lp_iterations),
        ("rounding_attempts", stats.rounding_attempts, |c| {
            c.rounding_attempts
        }),
        ("repairs", stats.repairs, |c| c.repairs),
    ]
}

/// Checks one `MapStart..MapEnd` run and returns its `PhaseEnd` counters.
fn check_run(label: &str, run: &[TraceEvent]) -> Vec<PhaseCounters> {
    assert!(
        matches!(run.first(), Some(TraceEvent::MapStart { .. })),
        "{label}: run should open with MapStart"
    );
    assert!(
        matches!(run.last(), Some(TraceEvent::MapEnd { .. })),
        "{label}: run should close with MapEnd, got {:?}",
        run.last()
    );
    let mut open = None;
    let mut ends = Vec::new();
    for e in run {
        match e {
            TraceEvent::PhaseStart { phase } => {
                assert_eq!(open, None, "{label}: {phase:?} opened inside a phase");
                open = Some(*phase);
            }
            TraceEvent::PhaseEnd {
                phase, counters, ..
            } => {
                assert_eq!(open, Some(*phase), "{label}: unmatched PhaseEnd");
                open = None;
                ends.push(*counters);
            }
            TraceEvent::MapEnd { .. } => {
                assert_eq!(open, None, "{label}: MapEnd with {open:?} still open")
            }
            _ => {}
        }
    }
    ends
}

#[test]
fn every_traced_mapper_brackets_its_run_with_map_start_and_end() {
    let config = MapperConfig { max_attempts: 20 };
    let inputs = [
        ("paper", paper_instance()),
        ("memory-infeasible", memory_infeasible_instance()),
    ];
    for (input, (phys, venv)) in &inputs {
        for entry in MAPPERS {
            let mapper = build_mapper(entry.key, &config).expect("registered");
            let label = format!("{} on {input}", entry.key);
            let mut cache = MapCache::new();
            let (events, tracer) = shared_sink();
            cache.trace = tracer;
            let result =
                mapper.map_with_cache(phys, venv, &mut SmallRng::seed_from_u64(7), &mut cache);
            let events = events.lock().unwrap();
            if *input == "memory-infeasible" {
                assert!(result.is_err(), "{label}: mapped an infeasible instance");
            }

            // A pool trace is its members' runs back to back.
            let mut runs: Vec<&[TraceEvent]> = Vec::new();
            let mut begin = 0;
            for (i, e) in events.iter().enumerate() {
                if let TraceEvent::MapEnd { ok, .. } = e {
                    let last = i + 1 == events.len();
                    assert!(
                        *ok == (last && result.is_ok()),
                        "{label}: MapEnd.ok mismatch"
                    );
                    runs.push(&events[begin..=i]);
                    begin = i + 1;
                }
            }
            assert!(!runs.is_empty(), "{label}: no MapStart..MapEnd run");
            assert_eq!(begin, events.len(), "{label}: events after the last MapEnd");
            let ends: Vec<Vec<PhaseCounters>> = runs.iter().map(|r| check_run(&label, r)).collect();

            // The winning run's phases add up to the returned statistics
            // (R and RA re-place guests per attempt and emit no spans).
            let (Ok(outcome), Some(ends)) = (&result, ends.last()) else {
                continue;
            };
            if ends.is_empty() {
                assert!(
                    ["r", "ra"].contains(&entry.key),
                    "{label}: run has no phases"
                );
                continue;
            }
            for (name, stat, field) in counter_views(&outcome.stats) {
                let sum: u64 = ends.iter().map(field).sum();
                assert_eq!(stat as u64, sum, "{label}: MapStats::{name} vs trace");
            }
        }
    }
}
