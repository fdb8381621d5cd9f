//! HMN replayed stage by stage through the public stage functions, with a
//! span around each call, and a mapper wrapper that times an inner mapper.

use crate::spans::Spans;
use emumap_core::{
    hosting_stage_with, links_by_descending_bw, migration_stage, networking_stage_with,
    AStarPruneConfig, HostingPolicy, MapCache, MapError, MapOutcome, MapStats, Mapper,
    PlacementState,
};
use emumap_model::{Mapping, PhysicalTopology, VirtualEnvironment};
use rand::RngCore;
use std::cell::RefCell;

/// `Hmn::new()` as Hosting → Migration → Networking calls: paper hosting
/// rule, paper migration, links in descending bandwidth order and the
/// default A*Prune configuration. Before Networking, the `ar[]` table of
/// every destination host is computed in its own `graph.dijkstra` span,
/// so the `core.networking` span holds the route search alone. The
/// tables are a pure function of the topology, so the routes are those
/// of the shipped mapper; the callers check it.
pub struct StagedHmn<'a> {
    pub spans: &'a Spans,
    /// Stats of every successful mapping, in order.
    pub stats: RefCell<Vec<MapStats>>,
}

impl<'a> StagedHmn<'a> {
    pub fn new(spans: &'a Spans) -> Self {
        StagedHmn {
            spans,
            stats: RefCell::new(Vec::new()),
        }
    }
}

impl Mapper for StagedHmn<'_> {
    fn name(&self) -> &str {
        "HMN"
    }

    fn map(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
    ) -> Result<MapOutcome, MapError> {
        self.map_with_cache(phys, venv, rng, &mut MapCache::new())
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        _rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        let spans = self.spans;
        let links = links_by_descending_bw(venv);
        let mut state = PlacementState::new(phys, venv);
        let hosting = spans.time("core.hosting", || {
            hosting_stage_with(&mut state, &links, HostingPolicy::Paper)
        })?;
        let migration = spans.time("core.migration", || migration_stage(&mut state));
        let dijkstra_runs = spans.time("graph.dijkstra", || {
            let topo = &mut cache.topo;
            topo.prepare(phys);
            let before = topo.dijkstra_runs();
            let mut seen = vec![false; phys.graph().node_count()];
            for &l in &links {
                let (a, b) = venv.link_endpoints(l);
                let (ha, hb) = (state.host_of(a), state.host_of(b));
                let hd = hb.expect("hosting assigns every guest");
                if ha != hb && !seen[hd.index()] {
                    seen[hd.index()] = true;
                    topo.ar_and_csr(phys, hd);
                }
            }
            topo.dijkstra_runs() - before
        });
        let (routes, net) = spans.time("core.networking", || {
            networking_stage_with(&mut state, &links, &AStarPruneConfig::default(), cache)
        })?;
        let stats = MapStats {
            attempts: 1,
            colocation_hits: hosting.colocation_hits,
            first_fit_fallbacks: hosting.first_fit_fallbacks,
            migrations: migration.migrations,
            migrations_rejected: migration.rejected,
            proposals_evaluated: migration.proposals_evaluated,
            routed_links: net.routed_links,
            intra_host_links: net.intra_host_links,
            astar_expansions: net.search.expanded,
            astar_pushed: net.search.pushed,
            dijkstra_runs,
            // Lookups a cold table would have answered from the cache,
            // the shipped mapper's definition.
            ar_cache_hits: net.routed_links - dijkstra_runs,
            ..Default::default()
        };
        self.stats.borrow_mut().push(stats);
        let mapping = Mapping::new(state.into_placement(), routes);
        Ok(MapOutcome::new(phys, venv, mapping, stats))
    }
}

/// Times the inner mapper's `map_with_cache` in a `core.serve.map` span;
/// `Session::apply` takes it in place of the mapper it wraps.
pub struct TimedMapper<'a> {
    pub inner: &'a dyn Mapper,
    pub spans: &'a Spans,
}

impl Mapper for TimedMapper<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn map(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
    ) -> Result<MapOutcome, MapError> {
        self.map_with_cache(phys, venv, rng, &mut MapCache::new())
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        self.spans.time("core.serve.map", || {
            self.inner.map_with_cache(phys, venv, rng, cache)
        })
    }
}

/// Records the stats of every successful mapping of an inner mapper.
pub struct Recording<'a> {
    pub inner: &'a dyn Mapper,
    pub stats: RefCell<Vec<MapStats>>,
}

impl<'a> Recording<'a> {
    pub fn new(inner: &'a dyn Mapper) -> Self {
        Recording {
            inner,
            stats: RefCell::new(Vec::new()),
        }
    }
}

impl Mapper for Recording<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn map(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
    ) -> Result<MapOutcome, MapError> {
        self.map_with_cache(phys, venv, rng, &mut MapCache::new())
    }

    fn map_with_cache(
        &self,
        phys: &PhysicalTopology,
        venv: &VirtualEnvironment,
        rng: &mut dyn RngCore,
        cache: &mut MapCache,
    ) -> Result<MapOutcome, MapError> {
        let outcome = self.inner.map_with_cache(phys, venv, rng, cache)?;
        self.stats.borrow_mut().push(outcome.stats);
        Ok(outcome)
    }
}

/// The counters of a mapping compared between the staged replay and the
/// shipped mapper, and recorded as deterministic counts.
pub fn counters_of(s: &MapStats) -> [(&'static str, u64); 9] {
    [
        ("colocation_hits", s.colocation_hits as u64),
        ("first_fit_fallbacks", s.first_fit_fallbacks as u64),
        ("moves_accepted", s.migrations as u64),
        ("proposals", s.proposals_evaluated as u64),
        ("routed_links", s.routed_links as u64),
        ("astar_expansions", s.astar_expansions as u64),
        ("astar_pushed", s.astar_pushed as u64),
        ("dijkstra_runs", s.dijkstra_runs as u64),
        ("ar_cache_hits", s.ar_cache_hits as u64),
    ]
}
