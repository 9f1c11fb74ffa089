//! The sharded engine: one book, stateless shard planners.
//!
//! See the crate docs for the model; this module holds the
//! orchestration. A [`ShardedEngine`] owns exactly one
//! [`ufp_engine::Engine`] — the deployment's *book*: requests,
//! admissions, residuals and carry, topology and the readmission queue,
//! events, metrics and health. Next to it sit only the partition, the
//! lease ledger and per-shard counters. Each epoch is one
//! [`Engine::submit_batch_with`] call on the book with the shard
//! planner as its [`EpochPlanner`]:
//!
//! 1. **Open** (book): TTL releases, once, in the single engine's order.
//! 2. **Freeze** (book): one carry decay and one usable rule give the
//!    epoch context every shard plans against.
//! 3. **Lease**: each boundary edge's residual is cut into leases for
//!    its two adjacent shards.
//! 4. **Plan** every shard's sub-batch in parallel on the `ufp_par`
//!    pool, one job per shard and sequential within it, as a stateless
//!    traced [`bounded_ufp_epoch_traced`] run over
//!    the *global* capacities/usable/carry plus the shard's `routable`
//!    territory — so `B`, the guard threshold and the weight arithmetic
//!    match a single global engine bit for bit.
//! 5. **Merge-replay**: consume the shards' recorded selection steps in
//!    global score order, re-applying each step's dual-weight bumps
//!    through one global [`DualWeights`] and enforcing the *global*
//!    guard — truncating any shard's over-admission the moment the
//!    merged dual mass crosses the threshold. Pure arithmetic replay; no
//!    shortest-path work. When payments are on, the pass also assembles
//!    the merged steps into a global [`EpochResumeTrace`] over the
//!    epoch's full batch.
//! 6. **Price** every surviving winner at its exact critical value
//!    against the merged trace under the frozen context (one read-only
//!    resumed pass per winner — the passes a single global engine would
//!    run).
//! 7. **Cross-route** the cross-shard batch against the post-merge
//!    residuals and carry — a deterministic sequential pass.
//! 8. **Commit** (book): every winner, in merged-then-cross order, once.

use std::sync::Arc;
use std::time::Instant;

use ufp_core::{
    bounded_ufp_epoch_traced, Certificate, DualWeights, EpochContext, EpochOutcome,
    EpochResumeTrace, Request, RequestId, RunTrace, StopReason, UfpInstance, UfpRunResult,
    UfpSolution,
};
use ufp_engine::{
    Admission, Arrival, Engine, EngineConfig, EngineEvent, EngineMetrics, EpochPlanner,
    EpochReport, PaymentPolicy, PlannedEpoch, TopologyReport,
};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::EdgeId;
use ufp_netgraph::residual::ResidualCaps;
use ufp_netgraph::topology::{Topology, TopologyError, TopologyEvent};
use ufp_obs::Phase;

use crate::ledger::LeaseLedger;
use crate::partition::{EdgeOwner, ShardPlan};

/// Configuration of a [`ShardedEngine`].
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// The book's engine configuration. `engine.pool` doubles as the
    /// shard-dispatch pool.
    pub engine: EngineConfig,
    /// Fraction of a boundary edge's global residual leased out per
    /// epoch, split evenly between its two adjacent shards, in `[0, 1]`.
    /// `0.0` routes all boundary traffic through the cross-shard pass;
    /// `1.0` hands the full residual to the shards (starving the
    /// cross-shard pass on boundary edges for that epoch).
    pub lease_fraction: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            engine: EngineConfig::default(),
            lease_fraction: 0.5,
        }
    }
}

impl ShardConfig {
    /// Validate field ranges.
    pub fn validate(&self) {
        self.engine.validate();
        assert!(
            (0.0..=1.0).contains(&self.lease_fraction),
            "lease_fraction must lie in [0, 1], got {}",
            self.lease_fraction
        );
    }
}

/// Per-shard observability snapshot (see
/// [`ShardedEngine::shard_stats`]); the last row is the cross-shard
/// pass.
#[derive(Clone, Copy, Debug)]
pub struct ShardStats {
    /// Shard index (`shards` = the cross-shard row).
    pub shard: usize,
    /// Requests routed to this shard so far.
    pub requests: usize,
    /// Admissions this shard made (including released ones).
    pub admissions: usize,
    /// Cumulative wall-clock spent in this shard's *own* planning run
    /// (µs; the cross-shard row: the cross-route pass). It excludes time
    /// waiting on sibling shards or on the sequential merge, so on a
    /// multi-core host the per-shard values sum to more than the
    /// sharded wall-clock (that surplus *is* the parallelism). Transient
    /// telemetry: it is not snapshotted and restarts at 0 on restore.
    pub epoch_time_us: u64,
    /// Cumulative boundary-lease capacity granted (0 for the cross-shard
    /// row, which runs on full residuals).
    pub lease_granted: f64,
    /// Cumulative leased capacity committed.
    pub lease_used: f64,
    /// Lifetime lease utilization (0 when never granted).
    pub lease_utilization: f64,
}

/// Running per-row counters behind [`ShardStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ShardCounters {
    pub(crate) requests: u64,
    pub(crate) admissions: u64,
    pub(crate) epoch_time_us: u64,
}

/// Everything a sharded deployment keeps next to its book: the
/// partition, the lease policy and ledger, and the per-shard counters.
/// Plans each epoch on the book as its [`EpochPlanner`].
#[derive(Debug)]
pub(crate) struct ShardPlanner {
    pub(crate) config: ShardConfig,
    pub(crate) partition: ShardPlan,
    pub(crate) ledger: LeaseLedger,
    /// One row per shard, then the cross-shard row.
    pub(crate) counters: Vec<ShardCounters>,
    /// Pre-interned per-shard gauge names (`shard.lease_utilization.s{s}`),
    /// so the per-epoch gauge pass allocates nothing.
    lease_gauge_names: Vec<String>,
}

/// One shard's planning input: its sub-batch and its view of the
/// frozen context (leases on its boundary edges, its territory).
struct ShardJob {
    instance: UfpInstance,
    capacities: Vec<f64>,
    usable: Vec<bool>,
    routable: Vec<bool>,
    /// Lease capacity granted over all its boundary edges.
    granted: f64,
}

/// One shard's planning run.
struct ShardRun {
    trace: EpochResumeTrace,
    stop: StopReason,
    elapsed_us: u64,
}

/// Result of the merge-replay pass.
struct MergeOutcome {
    /// `(shard, step index)` in merged (global selection) order; every
    /// entry survived the global guard.
    merged: Vec<(usize, usize)>,
    /// Steps each shard keeps (prefix length).
    keep: Vec<usize>,
    /// `ε(B−1)` over the global context.
    ln_guard: f64,
    /// The global guard tripped mid-merge.
    guard_tripped: bool,
    /// The post-merge dual mass exceeds the guard (used to classify
    /// leftover-rejection as `Guard` rather than `NoPath`, matching
    /// the single engine's check-before-discover order).
    final_over_guard: bool,
    /// The merged steps assembled as one global [`EpochResumeTrace`]
    /// over the epoch's batch (requests id'd by batch position), built
    /// only when payments are priced. Step `k`'s `selected` is winner
    /// `k` in merged order.
    global_trace: Option<EpochResumeTrace>,
}

impl ShardPlanner {
    pub(crate) fn new(
        config: ShardConfig,
        partition: ShardPlan,
        ledger: LeaseLedger,
        counters: Vec<ShardCounters>,
    ) -> Self {
        let lease_gauge_names = (0..partition.shards())
            .map(|s| format!("shard.lease_utilization.s{s}"))
            .collect();
        ShardPlanner {
            config,
            partition,
            ledger,
            counters,
            lease_gauge_names,
        }
    }

    /// Cut every boundary edge's lease for shard `s` and build its job.
    fn job(&self, s: usize, instance: UfpInstance, ctx: &EpochContext<'_>, floor: f64) -> ShardJob {
        let mut capacities = ctx.capacities.to_vec();
        let mut usable = ctx.usable.to_vec();
        let mut routable = vec![false; capacities.len()];
        let mut granted = 0.0f64;
        for e in 0..capacities.len() {
            match self.partition.edge_owner(EdgeId(e as u32)) {
                EdgeOwner::Interior(x) if x as usize == s => routable[e] = true,
                EdgeOwner::Boundary(a, b) if a as usize == s || b as usize == s => {
                    let lease = self.config.lease_fraction * ctx.capacities[e] / 2.0;
                    granted += lease;
                    capacities[e] = lease;
                    usable[e] = ctx.usable[e] && lease >= floor;
                    routable[e] = usable[e];
                }
                _ => {}
            }
        }
        ShardJob {
            instance,
            capacities,
            usable,
            routable,
            granted,
        }
    }

    /// Record per-shard lease-ledger gauges (grant/use ratios) plus the
    /// deployment-wide aggregate. Only called when the recorder is
    /// enabled; strictly out-of-band.
    fn record_lease_gauges(&self, obs: &ufp_obs::Recorder) {
        let (mut granted, mut used) = (0.0f64, 0.0f64);
        for (s, name) in self.lease_gauge_names.iter().enumerate() {
            granted += self.ledger.granted(s);
            used += self.ledger.used(s);
            obs.gauge_set(name, self.ledger.utilization(s));
        }
        obs.gauge_set("shard.lease_granted_total", granted);
        obs.gauge_set("shard.lease_used_total", used);
        obs.gauge_set(
            "shard.lease_utilization",
            if granted > 0.0 { used / granted } else { 0.0 },
        );
    }
}

impl EpochPlanner for ShardPlanner {
    fn plan(
        &mut self,
        book: &Engine,
        instance: &UfpInstance,
        ctx: &EpochContext<'_>,
    ) -> PlannedEpoch {
        let shards = self.partition.shards();
        let engine_config = book.config();
        let obs = &engine_config.obs;
        let allocator = engine_config.allocator_config();
        let requests = instance.requests();
        let sub_instance = |rows: &[u32]| {
            let batch = rows.iter().map(|&i| requests[i as usize]).collect();
            UfpInstance::from_shared(Arc::clone(book.shared_graph()), batch)
        };

        // Classify: batch positions per shard, cross-shard ones last.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); shards + 1];
        for (i, r) in requests.iter().enumerate() {
            let owner = self
                .partition
                .request_shard(r)
                .map_or(shards, |s| s as usize);
            members[owner].push(i as u32);
        }
        for (row, rows) in self.counters.iter_mut().zip(&members) {
            row.requests += rows.len() as u64;
        }

        // Leases: each shard's view of the frozen context.
        let lease_span = obs.span(Phase::ShardLease);
        let floor = book.residual_floor();
        let jobs: Vec<ShardJob> = (0..shards)
            .map(|s| self.job(s, sub_instance(&members[s]), ctx, floor))
            .collect();
        let lease_granted: Vec<f64> = jobs.iter().map(|j| j.granted).collect();
        drop(lease_span);

        // Plan every shard's sub-batch in parallel: stateless traced
        // runs, so the merge below can replay each step verbatim.
        let runs: Vec<ShardRun> = engine_config.pool.map(&jobs, |_, job| {
            let begun = Instant::now();
            let job_ctx = EpochContext {
                capacities: &job.capacities,
                usable: &job.usable,
                carry: ctx.carry,
                routable: Some(&job.routable),
            };
            let (outcome, trace) =
                bounded_ufp_epoch_traced(&job.instance, &allocator, Some(&job_ctx));
            ShardRun {
                trace,
                stop: outcome.run.trace.stop_reason,
                elapsed_us: begun.elapsed().as_micros() as u64,
            }
        });

        // Merge-replay with the global guard; bumps land in the carry
        // in merged order (the order a single engine applies them).
        let priced = engine_config.payments != PaymentPolicy::None;
        let mut carry = ctx.carry.to_vec();
        let merge = {
            let steps = runs.iter().map(|r| r.trace.num_steps() as u64).sum();
            let _span = obs.span_attr(Phase::ShardMergeReplay, "steps", steps);
            merge_replay(
                ctx,
                &mut carry,
                engine_config.epsilon,
                &runs,
                &members,
                requests,
                priced,
            )
        };

        // Price every surviving winner against the merged trace, under
        // the frozen context — the passes a single engine would run.
        let mut payments = match &merge.global_trace {
            Some(trace) => book.price_trace(instance, ctx, trace),
            None => vec![0.0f64; requests.len()],
        };

        // The merged winners and their lease use.
        let mut routed = Vec::with_capacity(merge.merged.len());
        let mut lease_used = vec![0.0f64; shards];
        for &(s, j) in &merge.merged {
            let step = runs[s].trace.step(j);
            let pos = members[s][step.selected.index()];
            let demand = requests[pos as usize].demand;
            for &e in step.path.edges() {
                if matches!(self.partition.edge_owner(e), EdgeOwner::Boundary(..)) {
                    lease_used[s] += demand;
                }
            }
            routed.push((RequestId(pos), step.path.clone()));
        }
        for (s, run) in runs.iter().enumerate() {
            self.counters[s].admissions += merge.keep[s] as u64;
            self.counters[s].epoch_time_us += run.elapsed_us;
        }
        self.ledger.settle_epoch(&lease_granted, &lease_used);
        if obs.is_enabled() {
            self.record_lease_gauges(obs);
        }

        // Cross-shard pass against the post-merge residuals and carry.
        let cross = &members[shards];
        let mut cross_stop = None;
        if !cross.is_empty() {
            let begun = Instant::now();
            let _span = obs.span_attr(Phase::ShardCrossRoute, "batch", cross.len() as u64);
            let mut residual = book.residual().clone();
            for (pos, path) in &routed {
                residual.commit(path, requests[pos.index()].demand);
            }
            let capacities = residual.residuals();
            let usable = book.usable_mask(&residual);
            let cross_ctx = EpochContext {
                capacities: &capacities,
                usable: &usable,
                carry: &carry,
                routable: None,
            };
            let sub = sub_instance(cross);
            let (outcome, trace) = bounded_ufp_epoch_traced(&sub, &allocator, Some(&cross_ctx));
            let prices = book.price_trace(&sub, &cross_ctx, &trace);
            for (rid, path) in &outcome.run.solution.routed {
                let pos = cross[rid.index()];
                payments[pos as usize] = prices[rid.index()];
                routed.push((RequestId(pos), path.clone()));
            }
            cross_stop = Some(outcome.run.trace.stop_reason);
            let row = &mut self.counters[shards];
            row.admissions += outcome.run.solution.routed.len() as u64;
            row.epoch_time_us += begun.elapsed().as_micros() as u64;
            carry = outcome.carry;
        }

        let shard_stops: Vec<StopReason> = runs.iter().map(|r| r.stop).collect();
        let stop = derive_stop(
            requests.len(),
            routed.len(),
            &merge,
            &shard_stops,
            cross_stop,
        );
        PlannedEpoch {
            outcome: EpochOutcome {
                run: UfpRunResult {
                    solution: UfpSolution { routed },
                    trace: RunTrace {
                        records: Vec::new(),
                        ln_guard_threshold: merge.ln_guard,
                        stop_reason: stop,
                        certificate: Certificate::None,
                    },
                },
                carry,
            },
            payments,
        }
    }
}

/// The sharded admission-control engine. Drop-in analogue of
/// [`Engine`] for partitioned deployments: same `submit_batch` /
/// read-out surface, same event and metrics shapes — they are the
/// book's own — with per-shard planning in parallel under capacity
/// leases and a global-guard merge.
#[derive(Debug)]
pub struct ShardedEngine {
    /// The deployment's only engine: every request, admission, load,
    /// event and metric lives here.
    pub(crate) book: Engine,
    pub(crate) planner: ShardPlanner,
}

impl ShardedEngine {
    /// Create a sharded engine over `graph` with the given partition.
    pub fn new(graph: Arc<Graph>, plan: ShardPlan, config: ShardConfig) -> Self {
        config.validate();
        let shards = plan.shards();
        ShardedEngine {
            book: Engine::from_shared(graph, config.engine.clone()),
            planner: ShardPlanner::new(
                config,
                plan,
                LeaseLedger::new(shards),
                vec![ShardCounters::default(); shards + 1],
            ),
        }
    }

    /// Process one batch of arrivals as a new epoch (see the module
    /// docs for the pipeline). Deterministic: identical streams produce
    /// identical admissions, payments, events, loads, and carry,
    /// regardless of pool parallelism.
    pub fn submit_batch(&mut self, arrivals: &[Arrival]) -> EpochReport {
        self.book
            .submit_batch_with(arrivals, Some(&mut self.planner))
    }

    /// Apply topology mutations and repair the book (see
    /// [`Engine::apply_topology`]). Boundary leases need no explicit
    /// invalidation: they are cut fresh each epoch from the repaired
    /// residuals.
    pub fn apply_topology(
        &mut self,
        events: &[TopologyEvent],
    ) -> Result<TopologyReport, TopologyError> {
        self.book.apply_topology(events)
    }

    /// Drain the re-admission queue (see [`Engine::drain_readmissions`]).
    pub fn drain_readmissions(&mut self) -> Vec<Arrival> {
        self.book.drain_readmissions()
    }

    /// Drain the event log (see [`Engine::drain_events`]).
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        self.book.drain_events()
    }

    /// Audit the active admissions against the effective capacities
    /// (see [`Engine::verify_active_feasibility`]).
    pub fn verify_active_feasibility(&self) -> Result<(), String> {
        self.book.verify_active_feasibility()
    }

    // ------------------------------------------------------------------
    // Read-out: the book's, plus the sharding state.
    // ------------------------------------------------------------------

    /// The deployment's book: the one engine holding all of its state.
    pub fn engine(&self) -> &Engine {
        &self.book
    }

    /// Number of shards (the cross-shard row not counted).
    pub fn shards(&self) -> usize {
        self.planner.partition.shards()
    }

    /// The partition in force.
    pub fn partition(&self) -> &ShardPlan {
        &self.planner.partition
    }

    /// Engine configuration and lease policy.
    pub fn config(&self) -> &ShardConfig {
        &self.planner.config
    }

    /// The lease ledger.
    pub fn ledger(&self) -> &LeaseLedger {
        &self.planner.ledger
    }

    /// Completed epochs.
    pub fn epoch(&self) -> u64 {
        self.book.epoch()
    }

    /// Running aggregate metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        self.book.metrics()
    }

    /// The event log accumulated so far.
    pub fn events(&self) -> &[EngineEvent] {
        self.book.events()
    }

    /// The residual-capacity tracker.
    pub fn residual(&self) -> &ResidualCaps {
        self.book.residual()
    }

    /// The dynamic-topology overlay.
    pub fn topology(&self) -> &Topology {
        self.book.topology()
    }

    /// The request registry (ids match a single engine fed the same
    /// stream).
    pub fn requests(&self) -> &[Request] {
        self.book.requests()
    }

    /// Number of admissions ever made.
    pub fn num_admissions(&self) -> usize {
        self.book.admissions().len()
    }

    /// Admission `i`.
    pub fn admission(&self, i: usize) -> Admission {
        self.book.admissions()[i].clone()
    }

    /// All admissions ever made, including released ones.
    pub fn admissions(&self) -> &[Admission] {
        self.book.admissions()
    }

    /// The whole submitted history as one instance over the base graph.
    pub fn instance(&self) -> UfpInstance {
        self.book.instance()
    }

    /// Currently-held admissions, as a solution over
    /// [`ShardedEngine::instance`].
    pub fn active_solution(&self) -> UfpSolution {
        self.book.active_solution()
    }

    /// Per-shard observability: request/admission counts, cumulative
    /// planning wall-clock, and lease accounting. The last row is the
    /// cross-shard pass.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let ledger = &self.planner.ledger;
        let shards = self.shards();
        self.planner
            .counters
            .iter()
            .enumerate()
            .map(|(s, c)| {
                let leased = s < shards;
                ShardStats {
                    shard: s,
                    requests: c.requests as usize,
                    admissions: c.admissions as usize,
                    epoch_time_us: c.epoch_time_us,
                    lease_granted: if leased { ledger.granted(s) } else { 0.0 },
                    lease_used: if leased { ledger.used(s) } else { 0.0 },
                    lease_utilization: if leased { ledger.utilization(s) } else { 0.0 },
                }
            })
            .collect()
    }
}

/// The merge-replay pass: consume shard selection steps in global score
/// order through one global [`DualWeights`], enforcing the global
/// guard. Applies every consumed step's bumps to `carry` (the frozen,
/// already decayed carry) in merged order.
///
/// With `build_trace` set, the consumed steps are simultaneously
/// assembled into a global [`EpochResumeTrace`] over the epoch's batch
/// (requests id'd by batch position): each pushed step carries the
/// shard-recorded `ln α` / raw score / path / bumps verbatim, plus the
/// *global* `ln D₁` (the dual sum this merge checks against the guard)
/// and the global running routed value — exactly the record a single
/// engine's traced run would have produced, so pricing passes can
/// checkpoint and resume against it.
fn merge_replay(
    ctx: &EpochContext<'_>,
    carry: &mut [f64],
    epsilon: f64,
    runs: &[ShardRun],
    members: &[Vec<u32>],
    requests: &[Request],
    build_trace: bool,
) -> MergeOutcome {
    let shards = runs.len();
    let b = ctx
        .capacities
        .iter()
        .zip(ctx.usable)
        .filter(|&(_, &u)| u)
        .map(|(&c, _)| c)
        .fold(f64::INFINITY, f64::min);
    let ln_guard = epsilon * (b - 1.0);
    let mut weights = DualWeights::with_context(ctx.capacities, ctx.usable, ctx.carry);
    let mut cursors = vec![0usize; shards];
    let mut merged = Vec::new();
    let mut guard_tripped = false;
    let mut global_trace = build_trace.then(EpochResumeTrace::default);
    let mut routed_value = 0.0f64;
    loop {
        // The next candidate per shard is its first unconsumed step;
        // global order is (ln α, raw score, batch position). The raw
        // score is the selection loop's own full-precision argmin key —
        // ln α, its shift-invariant ln round-trip, can collapse two
        // scores one ulp apart onto the same bits, so ties break on the
        // raw key first and only then on the single engine's id rule.
        let mut best: Option<(f64, f64, u32, usize)> = None;
        for (s, run) in runs.iter().enumerate() {
            if cursors[s] >= run.trace.num_steps() {
                continue;
            }
            let step = run.trace.step(cursors[s]);
            let g = members[s][step.selected.index()];
            let better = match best {
                None => true,
                Some((la, rs, gid, _)) => {
                    step.ln_alpha < la
                        || (step.ln_alpha == la
                            && (step.raw_score < rs || (step.raw_score == rs && g < gid)))
                }
            };
            if better {
                best = Some((step.ln_alpha, step.raw_score, g, s));
            }
        }
        let Some((_, _, g, s)) = best else { break };
        // The single engine checks the guard at the top of every
        // iteration, before selecting; reproduce that exactly. The dual
        // sum it checks is the ln D₁ its record would carry.
        let ln_d1 = weights.ln_dual_sum();
        if ln_d1 > ln_guard {
            guard_tripped = true;
            break;
        }
        let step = runs[s].trace.step(cursors[s]);
        for (&e, &bump) in step.path.edges().iter().zip(step.bumps) {
            weights.bump(e, bump);
            carry[e.index()] += bump;
        }
        if let Some(gt) = global_trace.as_mut() {
            gt.push_step(
                RequestId(g),
                step.ln_alpha,
                step.raw_score,
                ln_d1,
                routed_value,
                step.path.clone(),
                step.bumps.to_vec(),
            );
            routed_value += requests[g as usize].value;
        }
        merged.push((s, cursors[s]));
        cursors[s] += 1;
    }
    let final_over_guard = guard_tripped || weights.ln_dual_sum() > ln_guard;
    MergeOutcome {
        merged,
        keep: cursors,
        ln_guard,
        guard_tripped,
        final_over_guard,
        global_trace,
    }
}

/// Derive the epoch's stop reason, reproducing the single engine's
/// check order (guard before path discovery) on the merged state.
fn derive_stop(
    arrivals: usize,
    accepted: usize,
    merge: &MergeOutcome,
    shard_stops: &[StopReason],
    cross_stop: Option<StopReason>,
) -> StopReason {
    if merge.guard_tripped || cross_stop == Some(StopReason::Guard) {
        return StopReason::Guard;
    }
    if accepted == arrivals {
        return StopReason::Exhausted;
    }
    // Leftovers exist. A single engine would have checked the guard one
    // more time before discovering it cannot route them; shards that
    // stopped on their own (smaller) guard view imply the same.
    if merge.final_over_guard || shard_stops.contains(&StopReason::Guard) {
        return StopReason::Guard;
    }
    StopReason::NoPath
}
