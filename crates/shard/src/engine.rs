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
//! 5. **Merge-replay**: [`EpochResumeTrace::merge`], `ufp_core`'s own
//!    replay, consumes the shards' recorded selection steps in global
//!    score order under the *global* guard — truncating any shard's
//!    over-admission the moment the merged dual mass crosses the
//!    threshold — and assembles the merged steps into one global
//!    [`EpochResumeTrace`] over the epoch's full batch. Pure arithmetic
//!    replay; no shortest-path work.
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
    bounded_ufp_epoch_traced, Certificate, EpochContext, EpochOutcome, EpochResumeTrace, Request,
    RequestId, RunTrace, StopReason, UfpInstance, UfpRunResult, UfpSolution,
};
use ufp_engine::{
    Admission, Arrival, Engine, EngineConfig, EngineEvent, EngineMetrics, EpochPlanner,
    EpochReport, PlannedEpoch, TopologyReport,
};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::EdgeId;
use ufp_netgraph::topology::{TopologyError, TopologyEvent};
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
        let merged = {
            let steps = runs.iter().map(|r| r.trace.num_steps() as u64).sum();
            let _span = obs.span_attr(Phase::ShardMergeReplay, "steps", steps);
            let parts: Vec<_> = runs
                .iter()
                .zip(&members)
                .map(|(run, rows)| (&run.trace, &rows[..]))
                .collect();
            EpochResumeTrace::merge(instance, &allocator, Some(ctx), &parts)
        };

        // Price every surviving winner against the merged trace, under
        // the frozen context — the passes a single engine would run.
        let mut payments = book.price_trace(instance, ctx, &merged.trace);

        // The merged winners and their lease use.
        let mut lease_used = vec![0.0f64; shards];
        for (&(s, _), (pos, path)) in merged.order.iter().zip(&merged.outcome.run.solution.routed) {
            let demand = requests[pos.index()].demand;
            for &e in path.edges() {
                if matches!(self.partition.edge_owner(e), EdgeOwner::Boundary(..)) {
                    lease_used[s] += demand;
                }
            }
            self.counters[s].admissions += 1;
        }
        for (row, run) in self.counters.iter_mut().zip(&runs) {
            row.epoch_time_us += run.elapsed_us;
        }
        self.ledger.settle_epoch(&lease_granted, &lease_used);
        if obs.is_enabled() {
            self.record_lease_gauges(obs);
        }

        let merge_trace = &merged.outcome.run.trace;
        let (merge_stop, ln_guard) = (merge_trace.stop_reason, merge_trace.ln_guard_threshold);
        let mut routed = merged.outcome.run.solution.routed;
        let mut carry = merged.outcome.carry;

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
            merged.truncated,
            merge_stop,
            &shard_stops,
            cross_stop,
        );
        PlannedEpoch {
            outcome: EpochOutcome {
                run: UfpRunResult {
                    solution: UfpSolution { routed },
                    trace: RunTrace {
                        records: Vec::new(),
                        ln_guard_threshold: ln_guard,
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

/// The sharded admission-control engine: an [`Engine`] (the book) that
/// plans each epoch per shard, in parallel under capacity leases, and
/// merges the plans under the global guard. It takes the same
/// `submit_batch` / `apply_topology` / drain calls as an [`Engine`], and
/// its events and metrics are the book's own. Everything else the book
/// holds is read through [`ShardedEngine::engine`]; this type adds only
/// the sharding state (partition, config, ledger, shard stats).
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
    // Read-out: the book, the sharding state, and the few book read-outs
    // a driver takes every epoch.
    // ------------------------------------------------------------------

    /// The deployment's book: the one engine holding all of its state.
    pub fn engine(&self) -> &Engine {
        &self.book
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

    /// Running aggregate metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        self.book.metrics()
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

    /// Per-shard observability: request/admission counts, cumulative
    /// planning wall-clock, and lease accounting. The last row is the
    /// cross-shard pass.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let ledger = &self.planner.ledger;
        let shards = self.planner.partition.shards();
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

/// Derive the epoch's stop reason, reproducing the single engine's
/// check order (guard before path discovery) on the merged state:
/// `truncated` and `merge_stop` are [`ufp_core::MergedEpoch`]'s.
fn derive_stop(
    arrivals: usize,
    accepted: usize,
    truncated: bool,
    merge_stop: StopReason,
    shard_stops: &[StopReason],
    cross_stop: Option<StopReason>,
) -> StopReason {
    if truncated || cross_stop == Some(StopReason::Guard) {
        return StopReason::Guard;
    }
    if accepted == arrivals {
        return StopReason::Exhausted;
    }
    // Leftovers exist. A single engine would have checked the guard one
    // more time before discovering it cannot route them; shards that
    // stopped on their own (smaller) guard view imply the same.
    if merge_stop == StopReason::Guard || shard_stops.contains(&StopReason::Guard) {
        return StopReason::Guard;
    }
    StopReason::NoPath
}
