//! Incremental argmin selection for Algorithm 1's main loop.
//!
//! The paper's pseudocode re-solves one shortest-path query per
//! still-unrouted request on *every* iteration, yet each iteration only
//! bumps dual weights (and decrements residuals) along the single
//! winner's path. Within an epoch the dynamics are **monotone**: edge
//! weights never decrease, residual capacities never increase, the
//! `usable` mask never changes. Two consequences carry the whole module:
//!
//! 1. **Cached answers stay exact until touched.** If none of the edges
//!    on request `r`'s cached shortest path changed, a fresh Dijkstra
//!    would return the *bit-identical* distance and path: the cached
//!    path's edge weights are unchanged, every alternative path only got
//!    heavier (or vanished), and Dijkstra's `(distance, node-id)` pop
//!    order together with its first-strict-improvement parent rule means
//!    the set of nodes settling before any cached-path node can only
//!    shrink — so the same parents are assigned by the same float
//!    arithmetic. (See `crates/core/README.md` for the full argument.)
//! 2. **Stale scores are lower bounds.** A request's score
//!    `density(r) · dist(r)` can only grow over time, so a score
//!    computed at an earlier iteration under-estimates the current one.
//!    A min-heap over possibly-stale scores therefore supports *lazy*
//!    argmin: pop the minimum; if its entry is stale, refresh and
//!    re-insert (the key only rises); the first fresh minimum popped is
//!    the true argmin, with the heap's `(score, request-id)` order
//!    reproducing the deterministic tie-break of the full fan-out.
//!
//! [`IncrementalSelector`] combines a [`PathCache`] (cached paths +
//! edge→request interest index, so a winner's weight bumps dirty exactly
//! the requests whose cached paths cross the bumped edges), an
//! [`IndexedMinHeap`] over scores, and two refresh paths: lazy
//! single-request re-queries for small dirty sets, and the `ufp_par`
//! grouped fan-out for large ones (hotspot edges can dirty hundreds of
//! same-source requests at once, which one shared Dijkstra answers).
//! The one event that invalidates everything is a [`DualWeights`]
//! re-centering: it rescales every materialized weight, so cached
//! distances change *scale* and stale keys stop being lower bounds —
//! the selector detects the shift change and refreshes every live
//! request before the next selection.
//!
//! The output contract is strict: selections, scores, paths, iteration
//! records, resume traces, and stop reasons are **bit-identical** to the
//! full per-iteration fan-out ([`SelectionStrategy::FanOut`]), proptested
//! in `tests/selection_equivalence.rs`.

use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::heap::IndexedMinHeap;
use ufp_netgraph::ids::{EdgeId, NodeId};
use ufp_netgraph::path::Path;
use ufp_netgraph::pathcache::PathCache;
use ufp_obs::{Phase, Recorder};
use ufp_par::Pool;

use crate::instance::UfpInstance;
use crate::request::RequestId;
use crate::weights::DualWeights;

/// How the main loop finds each iteration's argmin request.
///
/// Both strategies produce **bit-identical** runs — same selections,
/// same paths, same [`crate::IterationRecord`]s, same resume traces and
/// exact critical values — so the choice is purely a performance knob,
/// and snapshots taken under one restore under the other (the engine
/// keeps them in one config-fingerprint class).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Dirty-set shortest-path cache + lazy score heap: per iteration,
    /// only requests whose cached paths cross the previous winner's
    /// edges are re-queried. The default — `O(iters · dirtied)` queries
    /// instead of `O(iters · remaining)`.
    #[default]
    Incremental,
    /// The paper-literal full fan-out: every remaining request re-queried
    /// every iteration. Kept as the reference for equivalence tests and
    /// speedup benchmarks (`BENCH_PR4.json`).
    FanOut,
}

/// Dirty sets at or above this size are refreshed eagerly through the
/// grouped `ufp_par` fan-out instead of lazily one-at-a-time at the heap
/// top. Pure cost model: grouped refresh shares one Dijkstra among
/// same-source requests and can use the worker pool; lazy refresh skips
/// requests that never become competitive. Results are identical either
/// way.
const EAGER_REFRESH_MIN: usize = 64;

/// Below this many source groups, the grouped refresh stays on the
/// calling thread (`Pool::map_with_floor`) — dispatch latency would
/// exceed the Dijkstra work.
const PARALLEL_GROUP_FLOOR: usize = 4;

/// The per-epoch incremental selection state. One instance lives for one
/// `run_epoch_loop` call; it is derived state (rebuildable from the loop
/// state at any point), which is what keeps checkpoints, resume traces,
/// and snapshots entirely unaware of it.
pub(crate) struct IncrementalSelector {
    cache: PathCache,
    /// Lazy min-heap over `(score, request-id)`.
    heap: IndexedMinHeap,
    /// Still in play: not selected, not proven unreachable.
    alive: Vec<bool>,
    dirty: Vec<bool>,
    /// Slots flagged dirty since the last eager refresh (entries whose
    /// flag was cleared by a lazy refresh are skipped when drained).
    dirty_list: Vec<u32>,
    dirty_count: usize,
    /// Weight scale the cached distances were computed under; a shift
    /// change (re-centering) forces a full refresh.
    shift_seen: f64,
    /// `true` until the first [`IncrementalSelector::select`] builds the
    /// cache from the loop's current remaining set.
    unseeded: bool,
    /// Forces the next refresh to be eager and complete (set by scale
    /// flushes, where stale keys are not lower bounds).
    must_refresh_all: bool,
    scratch: Dijkstra,
    drain_buf: Vec<u32>,
}

/// One refreshed cache answer: the request's slot and, when it still
/// has a path, the new `(distance, path)` pair.
type Refreshed = (u32, Option<(f64, Path)>);

/// Everything `select` needs from the surrounding loop, bundled so the
/// borrow of the loop state stays in one place.
pub(crate) struct SelectInputs<'a> {
    pub instance: &'a UfpInstance,
    pub weights: &'a DualWeights,
    /// Residual capacities (consulted only when `respect_residual`).
    pub residual: &'a [f64],
    pub usable: Option<&'a [bool]>,
    pub respect_residual: bool,
    pub pool: &'a Pool,
    /// Observability handle (off by default; never affects selection).
    pub obs: &'a Recorder,
}

impl SelectInputs<'_> {
    /// The edge filter for request-independent queries.
    #[inline]
    fn passable(&self, e: EdgeId) -> bool {
        self.usable.is_none_or(|u| u[e.index()])
    }

    /// The edge filter for `r`'s queries (residual-gated when enabled).
    #[inline]
    pub(crate) fn passable_for(&self, e: EdgeId, demand: f64) -> bool {
        self.passable(e) && (!self.respect_residual || self.residual[e.index()] >= demand - 1e-12)
    }
}

impl IncrementalSelector {
    pub(crate) fn new(instance: &UfpInstance) -> Self {
        let n = instance.num_requests();
        let graph = instance.graph();
        IncrementalSelector {
            cache: PathCache::new(n, graph.num_edges()),
            heap: IndexedMinHeap::new(n),
            alive: vec![false; n],
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            dirty_count: 0,
            shift_seen: 0.0,
            unseeded: true,
            must_refresh_all: false,
            scratch: Dijkstra::new(graph.num_nodes()),
            drain_buf: Vec::new(),
        }
    }

    #[inline]
    fn mark_dirty(&mut self, slot: u32) {
        let s = slot as usize;
        if self.alive[s] && !self.dirty[s] {
            self.dirty[s] = true;
            self.dirty_list.push(slot);
            self.dirty_count += 1;
        }
    }

    /// The argmin `(request, score)` under the current weights —
    /// bit-identical (selection, score, tie-break) to scanning a full
    /// fan-out's findings. `None` when no live request has a path
    /// (the fan-out's `NoPath` condition).
    pub(crate) fn select(
        &mut self,
        remaining: &[RequestId],
        inputs: &SelectInputs<'_>,
    ) -> Option<(RequestId, f64)> {
        if self.unseeded {
            self.unseeded = false;
            self.shift_seen = inputs.weights.shift();
            for &r in remaining {
                self.alive[r.index()] = true;
                self.mark_dirty(r.0);
            }
            self.must_refresh_all = true;
        }
        if self.dirty_count > 0 && (self.must_refresh_all || self.dirty_count >= EAGER_REFRESH_MIN)
        {
            self.refresh_eager(inputs);
            self.must_refresh_all = false;
        }
        // `selection.heap` covers the lazy pop loop (peeks, staleness
        // checks, re-inserts); the per-request re-queries it triggers
        // nest inside it as `selection.dijkstra` spans.
        let _heap = inputs.obs.span(Phase::SelectionHeap);
        loop {
            let (slot, key) = self.heap.peek()?;
            if self.dirty[slot as usize] {
                self.refresh_one(slot, inputs);
                continue;
            }
            return Some((RequestId(slot), key));
        }
    }

    /// The cached path of the just-selected winner. Valid immediately
    /// after [`IncrementalSelector::select`] returned that request.
    pub(crate) fn winner_path(&self, r: RequestId) -> &Path {
        self.cache
            .get(r.0)
            .expect("winner must have a cached path")
            .1
    }

    /// Account for an applied step: retire the winner, dirty the
    /// requests whose cached paths cross its path's edges (their weights
    /// were bumped and their residuals decremented), and detect weight
    /// re-centering (which invalidates every cached distance's scale).
    pub(crate) fn after_step(&mut self, selected: RequestId, path: &Path, weights: &DualWeights) {
        let s = selected.index();
        self.alive[s] = false;
        if self.dirty[s] {
            self.dirty[s] = false;
            self.dirty_count -= 1;
        }
        self.heap.remove(selected.0);
        self.cache.evict(selected.0);

        if weights.shift() != self.shift_seen {
            // Re-centering rescaled every materialized weight: cached
            // distances are in the wrong scale and stale keys are no
            // longer lower bounds. Refresh everything before the next
            // selection.
            self.shift_seen = weights.shift();
            self.must_refresh_all = true;
            for slot in 0..self.alive.len() as u32 {
                self.mark_dirty(slot);
            }
            return;
        }
        let mut buf = std::mem::take(&mut self.drain_buf);
        for &e in path.edges() {
            buf.clear();
            self.cache.drain_interested(e, &mut buf);
            for &slot in &buf {
                self.mark_dirty(slot);
            }
        }
        self.drain_buf = buf;
    }

    /// Re-query one request at the heap top (the lazy path). Clears its
    /// dirty flag; evicts it permanently if it no longer has a path
    /// (monotonicity: paths never come back within an epoch).
    fn refresh_one(&mut self, slot: u32, inputs: &SelectInputs<'_>) {
        let _span = inputs.obs.span(Phase::SelectionDijkstra);
        let s = slot as usize;
        debug_assert!(self.alive[s] && self.dirty[s]);
        self.dirty[s] = false;
        self.dirty_count -= 1;
        let req = inputs.instance.request(RequestId(slot));
        let graph = inputs.instance.graph();
        self.scratch.run(
            graph,
            inputs.weights.weights(),
            req.src,
            Targets::One(req.dst),
            |e| inputs.passable_for(e, req.demand),
        );
        match self.scratch.distance(req.dst) {
            None => {
                self.alive[s] = false;
                self.heap.remove(slot);
                self.cache.evict(slot);
            }
            Some(dist) => {
                let filled = self
                    .scratch
                    .path_to_into(req.dst, self.cache.refresh_buffer(slot));
                debug_assert!(filled, "settled target must reconstruct");
                self.cache.commit(slot, dist);
                self.heap.update(slot, req.density() * dist);
            }
        }
    }

    /// Refresh every dirty request through the grouped fan-out (the
    /// large-dirty-set / post-flush path). Same queries as
    /// [`IncrementalSelector::refresh_one`], batched: same-source
    /// requests share one Dijkstra (unless residual-gated, where the
    /// filter is per-request) and groups fan out over the worker pool.
    fn refresh_eager(&mut self, inputs: &SelectInputs<'_>) {
        let _span = inputs.obs.span(Phase::SelectionDirtyRefresh);
        let mut rids: Vec<RequestId> = Vec::with_capacity(self.dirty_count);
        for slot in self.dirty_list.drain(..) {
            if self.dirty[slot as usize] {
                self.dirty[slot as usize] = false;
                rids.push(RequestId(slot));
            }
        }
        self.dirty_count = 0;
        if rids.is_empty() {
            return;
        }
        let instance = inputs.instance;
        let graph = instance.graph();
        let w = inputs.weights.weights();

        let refreshed: Vec<Refreshed> = if inputs.respect_residual {
            // Per-request edge filter: no Dijkstra sharing possible.
            rids.sort_unstable();
            inputs.pool.map_with_floor(
                &rids,
                EAGER_REFRESH_MIN,
                || (Dijkstra::new(graph.num_nodes()), Path::trivial(NodeId(0))),
                |(dij, pbuf), _, &r| {
                    let req = instance.request(r);
                    dij.run(graph, w, req.src, Targets::One(req.dst), |e| {
                        inputs.passable_for(e, req.demand)
                    });
                    let found = dij.distance(req.dst).map(|dist| {
                        dij.path_to_into(req.dst, pbuf);
                        (dist, pbuf.clone())
                    });
                    (r.0, found)
                },
            )
        } else {
            let groups = crate::bounded_ufp::group_by_source(instance, &rids);
            let per_group: Vec<Vec<Refreshed>> = inputs.pool.map_with_floor(
                &groups,
                PARALLEL_GROUP_FLOOR,
                || (Dijkstra::new(graph.num_nodes()), Path::trivial(NodeId(0))),
                |(dij, pbuf), _, (src, members)| {
                    let targets: Vec<_> =
                        members.iter().map(|r| instance.request(*r).dst).collect();
                    dij.run(graph, w, *src, Targets::Set(&targets), |e| {
                        inputs.passable(e)
                    });
                    members
                        .iter()
                        .map(|&r| {
                            let dst = instance.request(r).dst;
                            let found = dij.distance(dst).map(|dist| {
                                dij.path_to_into(dst, pbuf);
                                (dist, pbuf.clone())
                            });
                            (r.0, found)
                        })
                        .collect()
                },
            );
            per_group.into_iter().flatten().collect()
        };

        for (slot, found) in refreshed {
            match found {
                None => {
                    self.alive[slot as usize] = false;
                    self.heap.remove(slot);
                    self.cache.evict(slot);
                }
                Some((dist, path)) => {
                    self.cache.install(slot, dist, path);
                    let score = instance.request(RequestId(slot)).density() * dist;
                    self.heap.update(slot, score);
                }
            }
        }
    }
}
