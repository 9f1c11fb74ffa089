//! Incremental argmin selection for Algorithm 1's main loop.
//!
//! The paper's pseudocode re-solves one shortest-path query per
//! still-unrouted request on *every* iteration, yet each iteration only
//! bumps dual weights along the single winner's path. Within an epoch
//! the dynamics are **monotone**: edge weights never decrease and the
//! `usable` mask never changes. Two consequences carry the whole module:
//!
//! 1. **Cached answers stay exact until touched.** If none of the edges
//!    on a cached shortest path changed, a fresh Dijkstra would return
//!    the *bit-identical* distance and path: the cached path's edge
//!    weights are unchanged, every alternative path only got heavier,
//!    and Dijkstra's `(distance, node-id)` pop order together
//!    with its first-strict-improvement parent rule means the set of
//!    nodes settling before any cached-path node can only shrink — so
//!    the same parents are assigned by the same float arithmetic. (See
//!    `crates/core/README.md` for the full argument.)
//! 2. **Stale scores are lower bounds.** A request's score
//!    `density(r) · dist(r)` can only grow over time, so a score
//!    computed at an earlier iteration under-estimates the current one.
//!    A min-heap over possibly-stale scores therefore supports *lazy*
//!    argmin: pop the minimum; if its entry is stale, refresh and
//!    re-insert (the key only rises); the first fresh minimum popped is
//!    the true argmin, with the heap's `(score, request-id)` order
//!    reproducing the deterministic tie-break of the full fan-out.
//!
//! **Route classes.** A request's shortest-path query depends on the
//! request only through its endpoints: the edge filter (`usable`, fixed
//! for the epoch) never reads the request. Requests sharing `(src, dst)`
//! form a *route class*: one query, one cached path and one distance
//! `D` serve every member, and the member scores are
//! `density · D`. The selector therefore caches, dirties, re-queries and
//! heap-orders **classes**, not requests. Within a class, members are
//! kept in `(density, id)` order; because `x ↦ x·D` is monotone under
//! rounding, the members scoring the class minimum form a contiguous run
//! at the front, and the class's *representative* is the lowest id in
//! that run. The class's heap entry is `(score, representative)`, so the
//! heap's `(key, slot)` order is exactly the fan-out's `(score, id)`
//! argmin over all requests. With all-distinct pairs, classes are just
//! requests.
//!
//! A *dirty* class's entry need not be exact, only a lexicographic lower
//! bound on its true `(score, representative)` — then the lazy pop
//! still reaches it before any entry it would lose to. The stale entry
//! `(s, r)` stays such a bound with no heap work at all, the winner's
//! own class included: the class's members only leave and its distance
//! only grows, so its true minimum is at least `s`; and any member that
//! scores exactly `s` now scored at most `s` before (the score is
//! monotone in the distance), hence exactly `s`, so it sat in the tied
//! run `r` was the lowest id of — its id is above `r`'s (strictly, if
//! `r` was the winner and left).
//!
//! `IncrementalSelector` combines a [`PathCache`] over classes (cached
//! paths + edge→class interest index, so a winner's weight bumps dirty
//! exactly the classes whose cached paths cross the bumped edges), an
//! [`IndexedMinHeap`] over request slots holding one entry per live
//! class, and two refresh paths: lazy single-class re-queries for small
//! dirty sets, and an eager grouped refresh for large ones (classes
//! sharing a source share one Dijkstra). Both run on the calling thread:
//! Algorithm 1's loop is sequential, and the parallel grains (pricing
//! passes, shards) sit above it. The one event that invalidates
//! everything is a [`DualWeights`] re-centering: it rescales every
//! materialized weight, so cached distances change *scale* and stale
//! keys stop being lower bounds — the selector detects the shift change
//! and refreshes every live class before the next selection.
//!
//! **Pricing passes** ([`crate::critical`]) drive this same selector
//! with two differences. The held-out winner stays in its route class
//! as a *phantom*: it keeps the class alive and queried, so the pass
//! reads the winner's distance off the class, but it has no member slot
//! and never takes a heap entry. And the selector starts from the
//! recorded run's own answers instead of cold: a traced run logs every
//! class-state change (a `SelectorLog`), and the pass for step `k`
//! installs the state the real selector held when step `k`'s selection
//! returned (Invariant 3 in `crates/core/README.md`).
//!
//! The output contract is strict: selections, scores, paths, iteration
//! records, resume traces, and stop reasons are **bit-identical** to the
//! paper-literal per-iteration fan-out, which survives only as the test
//! reference (`BoundedUfpConfig::fan_out_reference`) and is proptested
//! against in `tests/selection_equivalence.rs`.

use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::heap::IndexedMinHeap;
use ufp_netgraph::ids::{EdgeId, NodeId};
use ufp_netgraph::path::Path;
use ufp_netgraph::pathcache::PathCache;
use ufp_obs::{Phase, Recorder};

use crate::instance::UfpInstance;
use crate::request::RequestId;
use crate::weights::DualWeights;

/// Dirty sets of at least this many *classes* are refreshed eagerly,
/// grouped by source, instead of lazily one-at-a-time at the heap top.
/// Pure cost model: grouped refresh shares one Dijkstra among
/// same-source classes; lazy refresh skips classes that never become
/// competitive. Results are identical either way.
const EAGER_REFRESH_MIN: usize = 64;

/// "No heap entry", "no class", "no answer".
const NONE: u32 = u32::MAX;

/// A [`SelectorLog`] event that dirties a class and keeps its answer.
const DIRTY: u32 = u32::MAX - 1;

/// One route class: the live requests sharing one shortest-path query.
struct RouteClass {
    /// A member whose request poses the class's query (its endpoints);
    /// it stays valid after it leaves.
    query: RequestId,
    /// First non-empty density group; `groups_end` once every member
    /// left.
    head: u32,
    /// One past the class's last density group (a class's groups are
    /// contiguous in density order).
    groups_end: u32,
    /// The group holding the representative (valid while clean).
    rep_group: u32,
    /// Heap slot of the class's entry, [`NONE`] while it has none.
    entry: u32,
    /// Has members (or holds the phantom) and, as of its last query, a
    /// path.
    alive: bool,
    dirty: bool,
}

/// The members of one class sharing one density, ids ascending. A group
/// is consumed from its front: a selected representative is always its
/// group's lowest alive id, because every member of the group ties with
/// it. A group past the head empties only when its members win on a
/// tie with the head's score.
struct DensityGroup {
    density: f64,
    /// Position in `members` of the group's first alive member.
    cursor: u32,
    end: u32,
}

/// The per-epoch incremental selection state. One instance lives for one
/// `run_epoch_loop` call; it is derived state (rebuildable from the loop
/// state at any point), which is what keeps checkpoints, resume traces,
/// and snapshots entirely unaware of it.
pub(crate) struct IncrementalSelector {
    /// Cached `(distance, path)` per class.
    cache: PathCache,
    /// Lazy min-heap over `(score, request-id)`: one entry per live class.
    heap: IndexedMinHeap,
    classes: Vec<RouteClass>,
    groups: Vec<DensityGroup>,
    /// Every seeded request, class by class, each class in
    /// `(density, id)` order.
    members: Vec<RequestId>,
    /// Class index per request id (for seeded requests).
    class_of: Vec<u32>,
    /// Classes flagged dirty since the last eager refresh (entries whose
    /// flag was cleared by a lazy refresh are skipped when drained).
    dirty_list: Vec<u32>,
    dirty_count: usize,
    /// Weight scale the cached distances were computed under; a shift
    /// change (re-centering) forces a full refresh.
    shift_seen: f64,
    /// Forces the next refresh to be eager and complete (set by scale
    /// flushes, where stale keys are not lower bounds).
    must_refresh_all: bool,
    scratch: Dijkstra,
    drain_buf: Vec<u32>,
    /// The class holding a pricing pass's phantom, [`NONE`] otherwise.
    phantom_class: u32,
    /// Steps applied so far: the label of the next selection.
    steps: u32,
    /// Class-state changes, while recording a traced run.
    log: Option<SelectorLog>,
}

/// The class-state changes of one traced run's selector, compact enough
/// to keep beside the [`crate::EpochResumeTrace`]: one entry per
/// refresh, dirtying or retirement, not a copy of the selector per
/// step. Replaying the entries up to step `k` gives every class's state
/// when step `k`'s selection returned: its last answer and whether that
/// answer was still clean. An empty log (a fan-out or externally
/// assembled trace) seeds nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct SelectorLog {
    /// The recorded run's class per request id.
    class_of: Vec<u32>,
    num_classes: usize,
    /// Every answer a class query returned: distance and path.
    answers: Vec<(f64, Path)>,
    /// `(step, class, event)` in the order they happened. `event` is an
    /// index into `answers` (a clean answer), [`DIRTY`], or [`NONE`]
    /// (retired). An event between steps `k − 1` and `k` is labelled
    /// `k`: it is part of the state step `k`'s selection starts from.
    entries: Vec<(u32, u32, u32)>,
}

impl SelectorLog {
    /// Bytes held on the heap (lengths, not allocator capacities).
    pub(crate) fn heap_bytes(&self) -> usize {
        let answers: usize = self
            .answers
            .iter()
            .map(|(_, p)| {
                std::mem::size_of::<(f64, Path)>()
                    + std::mem::size_of_val(p.nodes())
                    + std::mem::size_of_val(p.edges())
            })
            .sum();
        std::mem::size_of_val(&self.class_of[..])
            + std::mem::size_of_val(&self.entries[..])
            + answers
    }
}

/// Everything `select` needs from the surrounding loop, bundled so the
/// borrow of the loop state stays in one place.
pub(crate) struct SelectInputs<'a> {
    pub instance: &'a UfpInstance,
    pub weights: &'a DualWeights,
    pub usable: Option<&'a [bool]>,
    /// Observability handle (off by default; never affects selection).
    pub obs: &'a Recorder,
}

impl SelectInputs<'_> {
    /// The edge filter every query shares.
    #[inline]
    pub(crate) fn passable(&self, e: EdgeId) -> bool {
        self.usable.is_none_or(|u| u[e.index()])
    }
}

impl IncrementalSelector {
    /// A selector over the loop's current `remaining` set: partitions it
    /// into route classes (numbered in `(src, dst)` order, so
    /// same-source classes are adjacent) and density groups, and flags
    /// every class for the first selection's full refresh. A pricing
    /// pass's `phantom` joins its route class without a member slot.
    pub(crate) fn new(
        remaining: &[RequestId],
        phantom: Option<RequestId>,
        inputs: &SelectInputs<'_>,
    ) -> Self {
        let instance = inputs.instance;
        let mut keyed: Vec<(NodeId, NodeId, u64, RequestId)> = remaining
            .iter()
            .chain(&phantom)
            .map(|&r| {
                let q = instance.request(r);
                // Positive floats order like their bit patterns.
                (q.src, q.dst, q.density().to_bits(), r)
            })
            .collect();
        keyed.sort_unstable();

        let n = instance.num_requests();
        let graph = instance.graph();
        let mut selector = IncrementalSelector {
            cache: PathCache::new(0, 0),
            heap: IndexedMinHeap::new(n),
            classes: Vec::new(),
            groups: Vec::new(),
            members: Vec::with_capacity(keyed.len()),
            class_of: vec![NONE; n],
            dirty_list: Vec::new(),
            dirty_count: 0,
            shift_seen: inputs.weights.shift(),
            must_refresh_all: true,
            scratch: Dijkstra::new(graph.num_nodes()),
            drain_buf: Vec::new(),
            phantom_class: NONE,
            steps: 0,
            log: None,
        };
        let mut last_member = None;
        for (i, &(src, dst, density, r)) in keyed.iter().enumerate() {
            let same_class = i > 0 && (keyed[i - 1].0, keyed[i - 1].1) == (src, dst);
            if !same_class {
                selector.classes.push(RouteClass {
                    query: r,
                    head: selector.groups.len() as u32,
                    groups_end: selector.groups.len() as u32,
                    rep_group: NONE,
                    entry: NONE,
                    alive: true,
                    dirty: false,
                });
            }
            let c = selector.classes.len() as u32 - 1;
            selector.class_of[r.index()] = c;
            if Some(r) == phantom {
                selector.phantom_class = c;
                continue;
            }
            // A new class or a new density opens a group.
            if last_member != Some((src, dst, density)) {
                let at = selector.members.len() as u32;
                selector.groups.push(DensityGroup {
                    density: f64::from_bits(density),
                    cursor: at,
                    end: at,
                });
                selector.classes.last_mut().expect("open class").groups_end += 1;
            }
            last_member = Some((src, dst, density));
            selector.members.push(r);
            selector.groups.last_mut().expect("open group").end += 1;
        }
        selector.cache = PathCache::new(selector.classes.len(), graph.num_edges());
        for c in 0..selector.classes.len() as u32 {
            selector.mark_dirty(c);
        }
        selector
    }

    /// Log every class-state change from here on (a traced run).
    pub(crate) fn record(&mut self) {
        self.log = Some(SelectorLog {
            class_of: self.class_of.clone(),
            num_classes: self.classes.len(),
            ..SelectorLog::default()
        });
    }

    /// The log [`IncrementalSelector::record`] started (empty if none).
    pub(crate) fn take_log(&mut self) -> SelectorLog {
        self.log.take().unwrap_or_default()
    }

    fn log_event(&mut self, c: u32, event: u32) {
        if let Some(log) = self.log.as_mut() {
            log.entries.push((self.steps, c, event));
        }
    }

    /// Log class `c`'s fresh answer (its cache entry).
    fn log_answer(&mut self, c: u32) {
        if let Some(log) = self.log.as_mut() {
            let (dist, path) = self.cache.get(c).expect("answered class is cached");
            log.entries.push((self.steps, c, log.answers.len() as u32));
            log.answers.push((dist, path.clone()));
        }
    }

    /// Start from the state `log`'s run held when step `step`'s
    /// selection returned, over this selector's member sets: clean
    /// answers are installed as they were (exact, Invariant 2), dirty
    /// ones are keyed from their stale distance (a lower bound,
    /// Invariant 1) and stay dirty, and classes without a path stay
    /// retired. An empty log leaves the selector cold.
    pub(crate) fn seed(&mut self, log: &SelectorLog, step: usize) {
        if log.entries.is_empty() {
            return;
        }
        let mut state = vec![(NONE, false); log.num_classes];
        for &(_, c, event) in log.entries.iter().take_while(|e| e.0 as usize <= step) {
            let s = &mut state[c as usize];
            *s = if event == DIRTY {
                (s.0, true)
            } else {
                (event, false)
            };
        }
        self.dirty_list.clear();
        self.dirty_count = 0;
        self.must_refresh_all = false;
        for c in 0..self.classes.len() as u32 {
            self.classes[c as usize].dirty = false;
            let query = self.classes[c as usize].query;
            let (answer, dirty) = state[log.class_of[query.index()] as usize];
            if answer == NONE {
                self.retire(c);
                continue;
            }
            let (dist, path) = &log.answers[answer as usize];
            if dirty {
                self.rekey(c, *dist);
                self.mark_dirty(c);
            } else {
                self.cache.install(c, *dist, path.clone());
                self.rekey(c, *dist);
            }
        }
    }

    #[inline]
    fn mark_dirty(&mut self, c: u32) {
        let class = &mut self.classes[c as usize];
        if class.alive && !class.dirty {
            class.dirty = true;
            self.dirty_list.push(c);
            self.dirty_count += 1;
            self.log_event(c, DIRTY);
        }
    }

    /// Point class `c`'s heap entry at `(key, slot)`, moving it if it
    /// sat under another slot.
    fn set_entry(&mut self, c: u32, slot: u32, key: f64) {
        let class = &mut self.classes[c as usize];
        if class.entry != slot && class.entry != NONE {
            self.heap.remove(class.entry);
        }
        class.entry = slot;
        self.heap.update(slot, key);
    }

    /// Take class `c` out of play: no members left, or no path.
    fn retire(&mut self, c: u32) {
        let class = &mut self.classes[c as usize];
        debug_assert!(!class.dirty, "retired classes are clean");
        class.alive = false;
        if class.entry != NONE {
            self.heap.remove(class.entry);
            class.entry = NONE;
        }
        self.cache.evict(c);
        self.log_event(c, NONE);
    }

    /// Re-key a freshly queried class: find its representative under
    /// distance `dist` and install the exact `(score, representative)`
    /// entry.
    fn rekey(&mut self, c: u32, dist: f64) {
        let class = &mut self.classes[c as usize];
        if class.head == class.groups_end {
            // Only the phantom is left: the class stays queried but
            // takes no heap entry.
            if class.entry != NONE {
                self.heap.remove(class.entry);
                class.entry = NONE;
            }
            return;
        }
        let head = &self.groups[class.head as usize];
        let score = head.density * dist;
        let mut rep = self.members[head.cursor as usize];
        let mut rep_group = class.head;
        // Later groups are denser, so they score at least `score`; the
        // ones scoring exactly `score` follow the head contiguously.
        for g in class.head + 1..class.groups_end {
            let group = &self.groups[g as usize];
            if group.cursor == group.end {
                continue;
            }
            if group.density * dist != score {
                break;
            }
            let m = self.members[group.cursor as usize];
            if m < rep {
                rep = m;
                rep_group = g;
            }
        }
        class.rep_group = rep_group;
        self.set_entry(c, rep.0, score);
    }

    /// The argmin `(request, score)` under the current weights —
    /// bit-identical (selection, score, tie-break) to scanning a full
    /// fan-out's findings. `None` when no live request has a path
    /// (the fan-out's `NoPath` condition).
    pub(crate) fn select(&mut self, inputs: &SelectInputs<'_>) -> Option<(RequestId, f64)> {
        if self.dirty_count > 0 && (self.must_refresh_all || self.dirty_count >= EAGER_REFRESH_MIN)
        {
            self.refresh_eager(inputs);
            self.must_refresh_all = false;
        }
        // `selection.heap` covers the lazy pop loop (peeks, staleness
        // checks, re-inserts); the per-class re-queries it triggers
        // nest inside it as `selection.dijkstra` spans.
        let _heap = inputs.obs.span(Phase::SelectionHeap);
        loop {
            let (slot, key) = self.heap.peek()?;
            let c = self.class_of[slot as usize];
            if self.classes[c as usize].dirty {
                self.refresh_one(c, inputs);
                continue;
            }
            return Some((RequestId(slot), key));
        }
    }

    /// The cached path of the just-selected winner. Valid immediately
    /// after [`IncrementalSelector::select`] returned that request.
    pub(crate) fn winner_path(&self, r: RequestId) -> &Path {
        self.cache
            .get(self.class_of[r.index()])
            .expect("winner must have a cached path")
            .1
    }

    /// The phantom's current shortest-path length (`None`: no path),
    /// re-querying its class first if it is dirty. The query is an
    /// ordinary class refresh, and the selector keeps its answer.
    pub(crate) fn phantom_distance(&mut self, inputs: &SelectInputs<'_>) -> Option<f64> {
        let c = self.phantom_class;
        if self.classes[c as usize].dirty {
            self.refresh_one(c, inputs);
        }
        self.cache.get(c).map(|(dist, _)| dist)
    }

    /// Whether the phantom still has a path where a pass stopped. A
    /// usable path cannot appear or vanish within an epoch, so the
    /// class's last answer decides even while it is dirty; only a class
    /// never answered (a cold pass that stopped before selecting) is
    /// queried.
    pub(crate) fn phantom_reachable(&mut self, inputs: &SelectInputs<'_>) -> bool {
        let c = self.phantom_class;
        if self.classes[c as usize].alive && self.cache.get(c).is_none() {
            self.refresh_one(c, inputs);
        }
        self.classes[c as usize].alive
    }

    /// Account for an applied step: retire the winner from its class
    /// (dirtying the class, whose representative just left), dirty the
    /// classes whose cached paths cross its path's edges (their weights
    /// were bumped), and detect weight
    /// re-centering (which invalidates every cached distance's scale).
    pub(crate) fn after_step(&mut self, selected: RequestId, path: &Path, weights: &DualWeights) {
        self.steps += 1;
        let c = self.class_of[selected.index()];
        let class = &mut self.classes[c as usize];
        let group = &mut self.groups[class.rep_group as usize];
        debug_assert_eq!(self.members[group.cursor as usize], selected);
        group.cursor += 1;
        while class.head < class.groups_end {
            let head = &self.groups[class.head as usize];
            if head.cursor < head.end {
                break;
            }
            class.head += 1;
        }
        if class.head == class.groups_end && c != self.phantom_class {
            self.retire(c);
        } else {
            // The winner's entry stays as the class's lower bound (see
            // the module docs) until the refresh re-keys it — or, once
            // only the phantom is left, drops it.
            self.mark_dirty(c);
        }

        if weights.shift() != self.shift_seen {
            // Re-centering rescaled every materialized weight: cached
            // distances are in the wrong scale and stale keys are no
            // longer lower bounds. Refresh everything before the next
            // selection.
            self.shift_seen = weights.shift();
            self.must_refresh_all = true;
            for c in 0..self.classes.len() as u32 {
                self.mark_dirty(c);
            }
            return;
        }
        let mut buf = std::mem::take(&mut self.drain_buf);
        for &e in path.edges() {
            buf.clear();
            self.cache.drain_interested(e, &mut buf);
            for &c in &buf {
                self.mark_dirty(c);
            }
        }
        self.drain_buf = buf;
    }

    /// Re-query one class at the heap top (the lazy path). Clears its
    /// dirty flag; retires it permanently — every member at once, since
    /// they share the query — if it no longer has a path (monotonicity:
    /// paths never come back within an epoch).
    fn refresh_one(&mut self, c: u32, inputs: &SelectInputs<'_>) {
        let _span = inputs.obs.span(Phase::SelectionDijkstra);
        let class = &mut self.classes[c as usize];
        debug_assert!(class.alive && class.dirty);
        class.dirty = false;
        self.dirty_count -= 1;
        let req = inputs.instance.request(class.query);
        self.scratch.run(
            inputs.instance.graph(),
            inputs.weights.weights(),
            req.src,
            Targets::One(req.dst),
            |e| inputs.passable(e),
        );
        self.store_answer(c, req.dst);
    }

    /// Write the scratch tree's answer for class `c`, whose target is
    /// `dst`: commit and log its path and re-key it, or retire it
    /// when it has no path.
    fn store_answer(&mut self, c: u32, dst: NodeId) {
        match self.scratch.distance(dst) {
            None => self.retire(c),
            Some(dist) => {
                let filled = self.scratch.path_to_into(dst, self.cache.refresh_buffer(c));
                debug_assert!(filled, "settled target must reconstruct");
                self.cache.commit(c, dist);
                self.log_answer(c);
                self.rekey(c, dist);
            }
        }
    }

    /// Refresh every dirty class, grouped by source (the
    /// large-dirty-set / post-flush path). Same queries as
    /// [`IncrementalSelector::refresh_one`], batched: same-source classes
    /// share one Dijkstra, and each answer is stored as `refresh_one`
    /// stores it.
    fn refresh_eager(&mut self, inputs: &SelectInputs<'_>) {
        let _span = inputs.obs.span(Phase::SelectionDirtyRefresh);
        let mut dirty: Vec<(u32, NodeId, NodeId)> = Vec::with_capacity(self.dirty_count);
        for c in self.dirty_list.drain(..) {
            let class = &mut self.classes[c as usize];
            if class.dirty {
                class.dirty = false;
                let q = inputs.instance.request(class.query);
                dirty.push((c, q.src, q.dst));
            }
        }
        self.dirty_count = 0;
        // Class numbers ascend with the source, so sorting groups them.
        dirty.sort_unstable_by_key(|q| q.0);
        let mut targets = Vec::new();
        for group in dirty.chunk_by(|a, b| a.1 == b.1) {
            targets.clear();
            targets.extend(group.iter().map(|q| q.2));
            self.scratch.run(
                inputs.instance.graph(),
                inputs.weights.weights(),
                group[0].1,
                Targets::Set(&targets),
                |e| inputs.passable(e),
            );
            for &(c, _, dst) in group {
                self.store_answer(c, dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded_ufp::{bounded_ufp_epoch, BoundedUfpConfig};
    use crate::request::Request;
    use ufp_netgraph::graph::{Graph, GraphBuilder};

    /// The selector's first pick on `inst` at its initial weights.
    fn first_pick(inst: &UfpInstance) -> (RequestId, f64) {
        let weights = DualWeights::new(inst.graph());
        let obs = Recorder::off();
        let inputs = SelectInputs {
            instance: inst,
            weights: &weights,
            usable: None,
            obs: &obs,
        };
        let remaining: Vec<RequestId> = inst.request_ids().collect();
        let mut selector = IncrementalSelector::new(&remaining, None, &inputs);
        selector.select(&inputs).expect("some request has a path")
    }

    /// Whole-run agreement with the fan-out reference.
    fn assert_matches_fanout(inst: &UfpInstance) {
        let run = |cfg: BoundedUfpConfig| bounded_ufp_epoch(inst, &cfg, None).run.solution.routed;
        let cfg = BoundedUfpConfig::with_epsilon(0.9);
        let (inc, fan) = (run(cfg.clone()), run(cfg.fan_out_reference()));
        assert_eq!(inc.len(), fan.len());
        for (x, y) in inc.iter().zip(&fan) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.edges(), y.1.edges());
        }
    }

    fn graph(n: usize, edges: &[(u32, u32, f64)]) -> Graph {
        let mut gb = GraphBuilder::directed(n);
        for &(u, v, c) in edges {
            gb.add_edge(NodeId(u), NodeId(v), c);
        }
        gb.build()
    }

    #[test]
    fn cross_class_tie_goes_to_the_lower_id_in_either_class() {
        // Two disjoint one-edge routes of equal weight, `0 → 1` and
        // `2 → 3`; every request has density 1/4, so both classes share
        // one score. The lowest id wins wherever it sits — first in the
        // `2 → 3` class, then in the `0 → 1` class, each time ahead of
        // a class whose members carry higher ids.
        let routes = graph(4, &[(0, 1, 4.0), (2, 3, 4.0)]);
        let a = |v| Request::new(NodeId(0), NodeId(1), 0.5, v);
        let b = |v| Request::new(NodeId(2), NodeId(3), 0.5, v);
        for (requests, expect) in [
            (vec![b(2.0), a(2.0), a(2.0), b(2.0)], 0),
            (vec![a(2.0), b(2.0), b(2.0), a(2.0)], 0),
            // Id 0 bids half the value, so it scores twice as high and
            // loses; the tie behind it goes to id 1 in either class.
            (vec![b(1.0), b(2.0), a(2.0), a(2.0)], 1),
            (vec![a(1.0), a(2.0), b(2.0), b(2.0)], 1),
        ] {
            let inst = UfpInstance::new(routes.clone(), requests);
            let (picked, score) = first_pick(&inst);
            assert_eq!(picked, RequestId(expect));
            let dist: f64 = DualWeights::new(inst.graph()).weights()[0];
            assert_eq!(score.to_bits(), (0.25 * dist).to_bits());
            assert_matches_fanout(&inst);
        }
    }

    #[test]
    fn rounding_tie_across_densities_goes_to_the_lower_id() {
        // A two-edge route, so the distance has a full mantissa. Find two
        // adjacent densities whose scores round to the same float there:
        // the denser request (id 0) sits in the class's second density
        // group yet ties the first, and wins on its lower id.
        let g = graph(3, &[(0, 1, 4.0), (1, 2, 3.0)]);
        let w = DualWeights::new(&g).weights().to_vec();
        let dist = 0.0 + w[0] + w[1];
        let (sparse, dense) = (1..100_000)
            .map(|i| {
                let v = 1.0 + i as f64 * 1e-5;
                (v, f64::from_bits(v.to_bits() - 1))
            })
            .find(|&(v, v_down)| {
                let (a, b) = (1.0 / v, 1.0 / v_down);
                a < b && a * dist == b * dist
            })
            .expect("some adjacent densities tie at this distance");
        let req = |v| Request::new(NodeId(0), NodeId(2), 1.0, v);
        let inst = UfpInstance::new(g, vec![req(dense), req(sparse)]);
        let (picked, score) = first_pick(&inst);
        assert_eq!(picked, RequestId(0));
        assert_eq!(score.to_bits(), ((1.0 / sparse) * dist).to_bits());
        assert_matches_fanout(&inst);
    }
}
