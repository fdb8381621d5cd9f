//! The run recorder every registry mapper reports through.
//!
//! A mapper run is a `MapStart`, a sequence of pipeline phases, and a
//! `MapEnd`. [`RunRecorder`] owns that bracketing: it opens the run,
//! wraps each stage in a phase that is closed on every exit path, diffs
//! the [`MapCache`]'s volatile counters across each phase, and folds the
//! recorded phases into the run's [`MapStats`]. The phases'
//! [`PhaseCounters`] are therefore the only counter vocabulary; the
//! `MapStats` a mapper returns is a view derived from them, so the
//! trace's `PhaseEnd` counters and the printed statistics cannot drift
//! apart.

use crate::astar_prune::AStarPruneConfig;
use crate::cache::MapCache;
use crate::error::MapError;
use crate::hosting::{hosting_stage_with, HostingPolicy};
use crate::mapper::{MapOutcome, MapStats};
use crate::migration::{migration_stage, migration_stage_exhaustive, MigrationPolicy};
use crate::networking::networking_stage_with;
use crate::state::PlacementState;
use emumap_model::{Mapping, PhysicalTopology, Route, VLinkId, VirtualEnvironment};
use emumap_trace::{Phase, PhaseCounters, TraceEvent};
use std::time::{Duration, Instant};

/// Microseconds in `d`, saturating into an event's `u64`.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Microseconds elapsed since `t`, saturating into an event's `u64`.
pub(crate) fn elapsed_us(t: Instant) -> u64 {
    micros(t.elapsed())
}

/// The cumulative `MapCache` counters a phase diffs: table runs and hits,
/// warm-scratch reuses, and DFS backtracks.
fn cache_counters(cache: &MapCache) -> PhaseCounters {
    let topo = &cache.topo;
    PhaseCounters {
        dijkstra_runs: (topo.dijkstra_runs() - topo.hop_tables()) as u64,
        hop_tables: topo.hop_tables() as u64,
        cache_hits: topo.hits() as u64,
        scratch_reuses: (cache.scratch.reuses()
            + cache.dfs.reuses()
            + cache.anneal.reuses()
            + cache.rounding.reuses()) as u64,
        dfs_backtracks: cache.dfs.backtracks() as u64,
        ..Default::default()
    }
}

/// One mapper run: opened by [`start`](Self::start), split into
/// [`phase`](Self::phase)s, closed by [`finish`](Self::finish). Dropping
/// an unfinished recorder — an error returned with `?` from anywhere in
/// the run — emits `MapEnd { ok: false }`.
pub(crate) struct RunRecorder<'c> {
    cache: &'c mut MapCache,
    start: Instant,
    spans: bool,
    finished: bool,
    phases: Vec<(Phase, Duration, PhaseCounters)>,
}

impl<'c> RunRecorder<'c> {
    /// Opens a run of `mapper` on `venv`: emits `MapStart`.
    pub(crate) fn start(cache: &'c mut MapCache, mapper: &str, venv: &VirtualEnvironment) -> Self {
        cache.trace.emit(|| TraceEvent::MapStart {
            mapper: mapper.to_string(),
            guests: venv.guest_count() as u64,
            links: venv.link_count() as u64,
        });
        RunRecorder {
            cache,
            start: Instant::now(),
            spans: true,
            finished: false,
            phases: Vec::new(),
        }
    }

    /// [`start`](Self::start) for a run whose phases are recorded but not
    /// emitted as spans. R and RA re-place every guest on each attempt,
    /// and a trace's phases must appear in pipeline order.
    pub(crate) fn start_spanless(
        cache: &'c mut MapCache,
        mapper: &str,
        venv: &VirtualEnvironment,
    ) -> Self {
        let mut run = RunRecorder::start(cache, mapper, venv);
        run.spans = false;
        run
    }

    /// Runs `stage` as one `phase`. The stage fills its decision counters
    /// into the `PhaseCounters` it is handed; the recorder adds the cache
    /// counters it diffs and closes the phase (`PhaseEnd`) whatever the
    /// stage returns, so a failed stage is still bracketed and counted.
    pub(crate) fn phase<T>(
        &mut self,
        phase: Phase,
        stage: impl FnOnce(&mut MapCache, &mut PhaseCounters) -> T,
    ) -> T {
        if self.spans {
            self.cache.trace.emit(|| TraceEvent::PhaseStart { phase });
        }
        let before = cache_counters(self.cache);
        let t = Instant::now();
        let mut counters = PhaseCounters::default();
        let result = stage(self.cache, &mut counters);
        let elapsed = t.elapsed();
        let after = cache_counters(self.cache);
        counters.dijkstra_runs = after.dijkstra_runs - before.dijkstra_runs;
        counters.hop_tables = after.hop_tables - before.hop_tables;
        counters.cache_hits = after.cache_hits - before.cache_hits;
        counters.scratch_reuses = after.scratch_reuses - before.scratch_reuses;
        counters.dfs_backtracks = after.dfs_backtracks - before.dfs_backtracks;
        if self.spans {
            self.cache.trace.emit(|| TraceEvent::PhaseEnd {
                phase,
                elapsed_us: micros(elapsed),
                counters,
            });
        }
        self.phases.push((phase, elapsed, counters));
        result
    }

    /// The paper's Hosting stage as a Hosting phase.
    pub(crate) fn hosting(
        &mut self,
        state: &mut PlacementState<'_>,
        links: &[VLinkId],
        policy: HostingPolicy,
    ) -> Result<(), MapError> {
        self.phase(Phase::Hosting, |_, c| {
            let h = hosting_stage_with(state, links, policy)?;
            c.colocation_hits = h.colocation_hits as u64;
            c.first_fit_fallbacks = h.first_fit_fallbacks as u64;
            Ok(())
        })
    }

    /// The Migration stage `policy` selects as a Migration phase; no phase
    /// at all when migration is off.
    pub(crate) fn migration(&mut self, state: &mut PlacementState<'_>, policy: MigrationPolicy) {
        let stage = match policy {
            MigrationPolicy::Paper => migration_stage,
            MigrationPolicy::Exhaustive => migration_stage_exhaustive,
            MigrationPolicy::Off => return,
        };
        self.phase(Phase::Migration, |_, c| {
            let (delta, full) = (state.delta_evaluations(), state.full_evaluations());
            let m = stage(state);
            c.moves_accepted = m.migrations as u64;
            c.moves_rejected = m.rejected as u64;
            c.proposals_evaluated = m.proposals_evaluated as u64;
            c.delta_evaluations = state.delta_evaluations() - delta;
            c.full_evaluations = state.full_evaluations() - full;
        });
    }

    /// A\*Prune routing of `links` as a Networking phase.
    pub(crate) fn networking(
        &mut self,
        state: &mut PlacementState<'_>,
        links: &[VLinkId],
        astar: &AStarPruneConfig,
    ) -> Result<Vec<Route>, MapError> {
        self.phase(Phase::Networking, |cache, c| {
            let (routes, net) = networking_stage_with(state, links, astar, cache)?;
            c.routed_links = net.routed_links as u64;
            c.intra_host_links = net.intra_host_links as u64;
            c.astar_expansions = net.search.expanded as u64;
            c.astar_pushed = net.search.pushed as u64;
            Ok(routes)
        })
    }

    /// Closes a successful run: derives its [`MapStats`] from the recorded
    /// phases and emits `MapEnd { ok: true }` with the Eq. 10 objective.
    pub(crate) fn finish(
        mut self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        mapping: Mapping,
        attempts: usize,
    ) -> MapOutcome {
        let stats = MapStats::from_phases(attempts, self.start.elapsed(), &self.phases);
        let outcome = MapOutcome::new(phys, venv, mapping, stats);
        self.finished = true;
        let start = self.start;
        self.cache.trace.emit(|| TraceEvent::MapEnd {
            ok: true,
            objective: Some(outcome.objective),
            elapsed_us: elapsed_us(start),
        });
        outcome
    }
}

impl Drop for RunRecorder<'_> {
    fn drop(&mut self) {
        if !self.finished && !std::thread::panicking() {
            let start = self.start;
            self.cache.trace.emit(|| TraceEvent::MapEnd {
                ok: false,
                objective: None,
                elapsed_us: elapsed_us(start),
            });
        }
    }
}
