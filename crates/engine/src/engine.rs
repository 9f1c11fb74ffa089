//! The streaming admission-control engine.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ufp_core::{
    bounded_ufp_epoch, bounded_ufp_epoch_traced, critical_value_exact, BoundedUfpConfig,
    EpochContext, EpochOutcome, EpochResumeTrace, Request, RequestId, StopReason, UfpInstance,
    UfpSolution,
};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::EdgeId;
use ufp_netgraph::residual::ResidualCaps;
use ufp_netgraph::topology::{Topology, TopologyError, TopologyEvent};
use ufp_obs::Phase;

use crate::codec::CodecError;
use crate::config::{EngineConfig, EventLevel, PaymentPolicy};
use crate::event::EngineEvent;
use crate::health::{run_regret_oracle, HealthState, RegretContext};
use crate::metrics::EngineMetrics;
use crate::snapshot::TopologyMigration;

/// One arriving request, optionally with a lifetime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// The request (normalized demand in `(0, 1]`).
    pub request: Request,
    /// Lifetime in epochs: `Some(k)` releases the admission at the start
    /// of the `k`-th epoch after admission; `None` holds forever.
    pub ttl: Option<u32>,
}

impl Arrival {
    /// A permanent arrival (no expiry).
    pub fn permanent(request: Request) -> Self {
        Arrival { request, ttl: None }
    }

    /// An arrival released after `ttl` epochs.
    pub fn with_ttl(request: Request, ttl: u32) -> Self {
        assert!(ttl >= 1, "ttl must be at least one epoch");
        Arrival {
            request,
            ttl: Some(ttl),
        }
    }
}

/// A committed admission.
#[derive(Clone, Debug)]
pub struct Admission {
    /// Global request id (index into [`Engine::instance`]).
    pub request: RequestId,
    /// The assigned route.
    pub path: ufp_netgraph::path::Path,
    /// Epoch of admission (1-based).
    pub epoch: u64,
    /// Epoch at whose start the admission is released, if any.
    pub expires_at: Option<u64>,
    /// Charged payment.
    pub payment: f64,
    /// Whether the admission has been released.
    pub released: bool,
    /// Whether the release was a topology-repair eviction (the payment
    /// was refunded through the event log). Evicted implies released.
    pub evicted: bool,
}

/// Summary of one [`Engine::apply_topology`] repair pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopologyReport {
    /// Topology version before the pass.
    pub from_version: u64,
    /// Topology version after the pass (`from_version` + events applied).
    pub to_version: u64,
    /// Admissions evicted by the pass.
    pub evicted: usize,
    /// Payments refunded to evicted admissions.
    pub refunded: f64,
    /// Evicted flows queued for re-admission in the next epoch (those
    /// whose TTL has not already lapsed).
    pub readmissions: usize,
    /// Links down after the pass.
    pub links_down: usize,
}

/// An external allocation rule for one epoch: the one hook through
/// which a deployment plans an epoch on this engine's book with
/// something other than a single [`bounded_ufp_epoch`] run. `ufp_shard`
/// uses it to run shard sub-batches in parallel and merge them.
///
/// The engine opens the epoch, registers the batch, and freezes the
/// context (decayed carry, residuals, usable mask) exactly as for its
/// own run. The planner decides winners, routes, the carried exponents
/// and the payments against that context. The engine then commits the
/// result like one of its own plans: loads, admissions, TTL index,
/// events, metrics and gauges.
pub trait EpochPlanner {
    /// Plan the epoch whose batch is `instance` (ids are batch
    /// positions) against `ctx`, the book's frozen epoch context.
    /// `book` is the engine in its post-release, pre-commit state.
    fn plan(
        &mut self,
        book: &Engine,
        instance: &UfpInstance,
        ctx: &EpochContext<'_>,
    ) -> PlannedEpoch;
}

/// An epoch decided by an [`EpochPlanner`].
#[derive(Clone, Debug)]
pub struct PlannedEpoch {
    /// Winners (batch-local ids) with their routes in commit order, the
    /// stop reason, and the carried dual exponents after the epoch.
    pub outcome: EpochOutcome,
    /// Payment per batch position (losers pay nothing).
    pub payments: Vec<f64>,
}

/// A planned-but-uncommitted epoch, produced by [`Engine::plan_epoch`]
/// and consumed by [`Engine::commit_epoch`]. Holds the frozen epoch
/// context, the allocation outcome, and its payments, already priced
/// against that context.
#[derive(Debug)]
pub struct EpochPlan {
    epoch: u64,
    started: Instant,
    instance: UfpInstance,
    arrivals: Vec<Arrival>,
    /// First global request id of this batch.
    base: u32,
    /// Admission indices released when the epoch opened.
    released: Vec<usize>,
    outcome: EpochOutcome,
    /// Payment per batch position (losers pay nothing).
    payments: Vec<f64>,
    ctx_capacities: Vec<f64>,
    ctx_usable: Vec<bool>,
    ctx_carry: Vec<f64>,
}

impl EpochPlan {
    /// Number of planned selection steps (= planned admissions).
    pub fn num_steps(&self) -> usize {
        self.outcome.run.solution.routed.len()
    }

    /// The allocation outcome as planned.
    pub fn outcome(&self) -> &EpochOutcome {
        &self.outcome
    }

    /// The batch as the epoch's allocation instance (batch-local ids).
    pub fn instance(&self) -> &UfpInstance {
        &self.instance
    }

    /// The epoch context the allocation ran under, frozen for the whole
    /// epoch: payments are priced against exactly this state.
    pub fn context(&self) -> EpochContext<'_> {
        EpochContext {
            capacities: &self.ctx_capacities,
            usable: &self.ctx_usable,
            carry: &self.ctx_carry,
            routable: None,
        }
    }
}

/// Summary of one [`Engine::submit_batch`] call.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Epoch number (1-based).
    pub epoch: u64,
    /// Requests in the batch.
    pub arrivals: usize,
    /// Requests admitted.
    pub accepted: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Admissions released at the epoch start.
    pub released: usize,
    /// Declared value admitted this epoch.
    pub value_admitted: f64,
    /// Payments charged this epoch.
    pub revenue: f64,
    /// Why the allocation loop ended.
    pub stop: StopReason,
    /// Smallest residual capacity after the epoch.
    pub min_residual: f64,
    /// Total load / total capacity after the epoch.
    pub total_utilization: f64,
    /// Wall-clock time spent in this call. The engine's only timing
    /// read-out: it never enters [`EngineMetrics`] or a snapshot, so
    /// callers derive latency percentiles and throughput from reports.
    pub elapsed: std::time::Duration,
}

/// The long-lived engine. See the crate docs for the epoch / residual
/// model.
///
/// The network is held behind an [`Arc`]: every per-epoch
/// [`UfpInstance`], every payment probe, and every [`Engine::instance`]
/// read-out shares the one graph allocation instead of cloning the CSR.
#[derive(Clone, Debug)]
pub struct Engine {
    pub(crate) graph: Arc<Graph>,
    pub(crate) config: EngineConfig,
    pub(crate) allocator_config: BoundedUfpConfig,
    /// Resolved residual floor (see [`crate::config::ResidualFloor`]).
    pub(crate) floor: f64,
    pub(crate) residual: ResidualCaps,
    /// Dynamic-topology overlay: effective capacities, link state, node
    /// drains, and the event log that produced them. Pristine (version
    /// 0) engines behave exactly as before the overlay existed.
    pub(crate) topology: Topology,
    /// Flows evicted by a topology repair, queued for re-admission:
    /// drained by the driver into the next epoch's batch.
    pub(crate) readmit_queue: Vec<Arrival>,
    /// Wall-clock cost of the most recent [`Engine::open_epoch`]'s TTL
    /// releases, folded into the next plan's [`EpochReport::elapsed`]
    /// so churn work keeps counting toward epoch latency across the
    /// open/plan split (transient; not snapshotted — restored engines
    /// simply start the next epoch's clock at zero release cost).
    pub(crate) pending_release_cost: std::time::Duration,
    pub(crate) carry: Vec<f64>,
    /// Append-only global request registry.
    pub(crate) requests: Vec<Request>,
    /// All admissions ever made (including released ones).
    pub(crate) admissions: Vec<Admission>,
    /// Live TTL'd admissions indexed by expiry epoch, so releasing is
    /// O(expiring this epoch) instead of a scan over all history.
    pub(crate) expiry_index: std::collections::BTreeMap<u64, Vec<usize>>,
    pub(crate) epoch: u64,
    pub(crate) events: Vec<EngineEvent>,
    /// Events discarded by the retention cap (see
    /// [`EngineConfig::event_capacity`]).
    pub(crate) events_dropped: u64,
    pub(crate) metrics: EngineMetrics,
    /// Auction-health bookkeeping ([`crate::config::HealthConfig`]).
    /// Pure telemetry: never snapshotted, never read by allocation.
    pub(crate) health: HealthState,
}

impl Engine {
    /// Create an engine over `graph`.
    pub fn new(graph: Graph, config: EngineConfig) -> Self {
        Self::from_shared(Arc::new(graph), config)
    }

    /// Create an engine over an already-shared graph. Zero-copy: the
    /// engine keeps the handle, so callers may hold the same graph for
    /// other engines, offline analysis, or workload generation without
    /// any duplication.
    pub fn from_shared(graph: Arc<Graph>, config: EngineConfig) -> Self {
        config.validate();
        let allocator_config = config.allocator_config();
        let floor = config
            .residual_floor
            .resolve(graph.num_edges(), config.epsilon);
        let residual = ResidualCaps::new(&graph);
        let topology = Topology::new(&graph);
        let carry = vec![0.0; graph.num_edges()];
        Engine {
            graph,
            config,
            allocator_config,
            floor,
            residual,
            topology,
            readmit_queue: Vec::new(),
            pending_release_cost: std::time::Duration::ZERO,
            carry,
            requests: Vec::new(),
            admissions: Vec::new(),
            expiry_index: std::collections::BTreeMap::new(),
            epoch: 0,
            events: Vec::new(),
            events_dropped: 0,
            metrics: EngineMetrics::default(),
            health: HealthState::default(),
        }
    }

    /// The same engine with every later epoch (and its pricing passes)
    /// run on the paper-literal fan-out loop instead of the incremental
    /// selector. Outputs are bit-identical; this exists only as the
    /// reference the engine equivalence tests compare against.
    #[doc(hidden)]
    pub fn fan_out_reference(mut self) -> Self {
        self.allocator_config = self.allocator_config.fan_out_reference();
        self
    }

    /// Append an event, enforcing the retention cap: at
    /// [`EngineConfig::event_capacity`] entries, the oldest half is
    /// rotated out in one amortized-O(1) drain and counted in
    /// [`Engine::events_dropped`].
    fn push_event(&mut self, event: EngineEvent) {
        if self.events.len() >= self.config.event_capacity {
            let drop = self.config.event_capacity / 2;
            self.events.drain(..drop);
            self.events_dropped += drop as u64;
        }
        self.events.push(event);
    }

    /// Process one batch of arrivals as a new epoch: release expired
    /// admissions, allocate with the monotone rule over the residual
    /// network and price the winners, commit routes.
    ///
    /// Equivalent to [`Engine::open_epoch`], [`Engine::plan_epoch_in`]
    /// and [`Engine::commit_epoch`] in turn, inside the recorder's
    /// epoch bracket, followed by the auction-health tick.
    pub fn submit_batch(&mut self, arrivals: &[Arrival]) -> EpochReport {
        self.submit_batch_with(arrivals, None)
    }

    /// [`Engine::submit_batch`] with the allocation decided by
    /// `planner` instead of the engine's own run (see
    /// [`EpochPlanner`]). Everything else — releases, the frozen
    /// context, commit, events, metrics, gauges, the epoch bracket, the
    /// regret oracle and the health tick — is the engine's own.
    pub fn submit_batch_with(
        &mut self,
        arrivals: &[Arrival],
        planner: Option<&mut dyn EpochPlanner>,
    ) -> EpochReport {
        // Bracket the whole epoch for the profile table: open + plan +
        // commit partition this scope, so the recorded phase sum tracks
        // the bracket's wall time (the `--profile` coverage invariant).
        let obs = self.config.obs.clone();
        obs.epoch_begin(self.epoch + 1);
        let plan = self.plan_epoch(arrivals, planner);
        // Freeze the regret-oracle inputs (clones of the plan's epoch
        // context) before commit consumes the plan; the oracle itself
        // runs strictly after the epoch bracket closes, so its cost
        // lands under `health.regret_oracle`, not the epoch phases.
        let regret_ctx = RegretContext::capture(
            &self.config.health,
            &obs,
            plan.epoch,
            &plan.ctx_capacities,
            &plan.ctx_usable,
            &plan.arrivals,
        );
        let report = self.commit_epoch(plan, None);
        obs.epoch_end(report.epoch);
        if let Some(ctx) = regret_ctx {
            run_regret_oracle(
                &self.graph,
                &obs,
                &self.config.health,
                ctx,
                report.value_admitted,
            );
        }
        self.health.epoch_tick(
            &self.config.health,
            &obs,
            report.epoch,
            report.elapsed.as_micros() as u64,
            self.metrics.evicted,
        );
        report
    }

    /// Open a new epoch and plan it **without committing**: expired
    /// admissions are released, the batch is registered in the global
    /// request registry, and the allocation runs against the engine's
    /// frozen residual view — by the engine's own monotone run
    /// (`planner: None`) or by `planner` — and the winners are priced
    /// against that view. Nothing is charged or committed until
    /// [`Engine::commit_epoch`]; exactly one commit must follow each
    /// plan.
    ///
    /// # Panics
    ///
    /// On a batch with a demand above 1 or an endpoint outside the
    /// graph, before the epoch opens: a refused batch leaves the engine
    /// untouched.
    pub fn plan_epoch(
        &mut self,
        arrivals: &[Arrival],
        planner: Option<&mut dyn EpochPlanner>,
    ) -> EpochPlan {
        self.check_arrivals(arrivals);
        let released = self.open_epoch(arrivals.len());
        self.plan_epoch_in(arrivals, released, planner)
    }

    /// Open the next epoch without planning it: advance the epoch
    /// counter, log the `EpochStarted` event, and release expired
    /// admissions, returning their admission indices in release order.
    /// Exactly one [`Engine::plan_epoch_in`] must follow each
    /// `open_epoch`.
    pub fn open_epoch(&mut self, arrivals: usize) -> Vec<usize> {
        let obs = self.config.obs.clone();
        let _span = obs.span(Phase::EpochOpen);
        let opened = Instant::now();
        self.epoch += 1;
        let epoch = self.epoch;
        // Every epoch opens with a Started event (paired with the
        // unconditional EpochCompleted in commit, so consumers can
        // bracket epochs even when a time-driven trigger submits empty
        // batches).
        self.push_event(EngineEvent::EpochStarted { epoch, arrivals });
        let released = self.release_expired();
        // Churn work belongs to the epoch's elapsed time; the next plan
        // backdates its clock by this much (see `plan_epoch_in`), so the
        // open/plan split does not shrink the reported epoch latency
        // relative to the pre-split `submit_batch`.
        self.pending_release_cost = opened.elapsed();
        released
    }

    /// Refuse a batch the engine cannot register, before any of it is:
    /// every demand normalized and both endpoints nodes of the graph.
    fn check_arrivals(&self, arrivals: &[Arrival]) {
        let nodes = self.graph.num_nodes();
        for a in arrivals {
            let r = &a.request;
            assert!(
                r.demand <= 1.0 + 1e-12,
                "engine requires normalized demands in (0, 1]"
            );
            assert!(
                r.src.index() < nodes && r.dst.index() < nodes,
                "arrival {} -> {} has an endpoint outside the {nodes}-node graph",
                r.src.index(),
                r.dst.index()
            );
        }
    }

    /// Plan an epoch already opened by [`Engine::open_epoch`] (whose
    /// returned release list is passed back in). See
    /// [`Engine::plan_epoch`] for the semantics; a refused batch panics
    /// here before any arrival is registered.
    pub fn plan_epoch_in(
        &mut self,
        arrivals: &[Arrival],
        released: Vec<usize>,
        planner: Option<&mut dyn EpochPlanner>,
    ) -> EpochPlan {
        let obs = self.config.obs.clone();
        let _span = obs.span(Phase::EpochPlan);
        // Backdate by the epoch-open (TTL release) cost so the reported
        // elapsed time covers the same work as the pre-split submit_batch.
        let release_cost = std::mem::take(&mut self.pending_release_cost);
        let now = Instant::now();
        let started = now.checked_sub(release_cost).unwrap_or(now);
        let epoch = self.epoch;

        // Register arrivals globally and build the epoch instance.
        self.check_arrivals(arrivals);
        let base = self.requests.len() as u32;
        self.requests.extend(arrivals.iter().map(|a| a.request));
        let batch: Vec<Request> = arrivals.iter().map(|a| a.request).collect();
        let instance = UfpInstance::from_shared(Arc::clone(&self.graph), batch);

        // The epoch context, frozen for the whole epoch (allocation and
        // every payment pass see the same state): residuals, the usable
        // rule, and the decayed carry.
        for k in &mut self.carry {
            *k *= self.config.carry_decay;
        }
        let ctx_capacities = self.residual.residuals();
        let ctx_usable = self.usable_mask(&self.residual);
        let ctx_carry = self.carry.clone();
        let ctx = EpochContext {
            capacities: &ctx_capacities,
            usable: &ctx_usable,
            carry: &ctx_carry,
            routable: None,
        };

        // The allocation and its payments: the planner's, or the
        // engine's own monotone run — traced and priced at once when
        // payments are on (each winner resumes from its selection step).
        let (outcome, payments) = match planner {
            Some(planner) => {
                let planned = planner.plan(self, &instance, &ctx);
                assert_eq!(
                    planned.payments.len(),
                    arrivals.len(),
                    "one payment slot per batch arrival"
                );
                assert_eq!(planned.outcome.carry.len(), ctx_carry.len(), "carry length");
                (planned.outcome, planned.payments)
            }
            None if self.config.payments == PaymentPolicy::CriticalValue => {
                let (outcome, trace) =
                    bounded_ufp_epoch_traced(&instance, &self.allocator_config, Some(&ctx));
                let payments = self.price_trace(&instance, &ctx, &trace);
                (outcome, payments)
            }
            None => (
                bounded_ufp_epoch(&instance, &self.allocator_config, Some(&ctx)),
                vec![0.0; arrivals.len()],
            ),
        };

        EpochPlan {
            epoch,
            started,
            instance,
            arrivals: arrivals.to_vec(),
            base,
            released,
            outcome,
            payments,
            ctx_capacities,
            ctx_usable,
            ctx_carry,
        }
    }

    /// The engine's usable rule applied to `residual`: edges whose
    /// residual clears the resolved floor (or that are effectively
    /// empty), and — on a mutated topology — only available ones. Down
    /// links and drained endpoints accept no *new* admissions: the
    /// residual tracker already carries effective capacities (a down
    /// link's residual is 0), but the mask's empty-edge clause would
    /// re-open an unloaded down link without this AND.
    pub fn usable_mask(&self, residual: &ResidualCaps) -> Vec<bool> {
        let mut usable = residual.usable_mask(self.floor);
        if !self.topology.is_pristine() {
            for (e, u) in usable.iter_mut().enumerate() {
                *u = *u && self.topology.available(EdgeId(e as u32));
            }
        }
        usable
    }

    /// The resolved residual floor (see [`crate::config::ResidualFloor`]).
    pub fn residual_floor(&self) -> f64 {
        self.floor
    }

    /// Commit a planned epoch: book its routes and payments (loads,
    /// admissions, TTL index, events), and close the epoch's report and
    /// metrics.
    ///
    /// `keep` must be `None`: every planned admission is committed.
    pub fn commit_epoch(&mut self, plan: EpochPlan, keep: Option<usize>) -> EpochReport {
        assert!(keep.is_none(), "commit_epoch commits the whole plan");
        let obs = self.config.obs.clone();
        let _span = obs.span(Phase::EpochCommit);
        let EpochPlan {
            epoch,
            started,
            arrivals,
            base,
            released,
            outcome,
            payments,
            ..
        } = plan;
        assert_eq!(
            epoch, self.epoch,
            "commit_epoch must consume the engine's own latest plan"
        );
        let stop = outcome.run.trace.stop_reason;

        self.carry = outcome.carry;
        let mut accepted = 0usize;
        let mut value_admitted = 0.0f64;
        let mut revenue = 0.0f64;
        let mut admitted_local = vec![false; arrivals.len()];
        for (local, path) in &outcome.run.solution.routed {
            let arrival = &arrivals[local.index()];
            let global = RequestId(base + local.0);
            let payment = payments[local.index()];
            self.residual.commit(path, arrival.request.demand);
            let expires_at = arrival.ttl.map(|t| epoch + t as u64);
            if let Some(expiry) = expires_at {
                self.expiry_index
                    .entry(expiry)
                    .or_default()
                    .push(self.admissions.len());
            }
            self.admissions.push(Admission {
                request: global,
                path: path.clone(),
                epoch,
                expires_at,
                payment,
                released: false,
                evicted: false,
            });
            admitted_local[local.index()] = true;
            accepted += 1;
            value_admitted += arrival.request.value;
            revenue += payment;
            if self.config.events == EventLevel::Request {
                self.push_event(EngineEvent::Admitted {
                    epoch,
                    request: global,
                    hops: path.edges().len(),
                    payment,
                });
            }
        }
        if self.config.events == EventLevel::Request {
            for (local, &admitted) in admitted_local.iter().enumerate() {
                if !admitted {
                    self.push_event(EngineEvent::Rejected {
                        epoch,
                        request: RequestId(base + local as u32),
                    });
                }
            }
        }

        // Full-history feasibility audit: debug builds only, and only
        // while the history is small — the check is O(total admissions)
        // per epoch and would make long debug replays quadratic. The
        // proptest suite covers the property at every epoch boundary.
        #[cfg(debug_assertions)]
        if self.admissions.len() <= 10_000 {
            if self.topology.is_pristine() {
                assert!(
                    self.active_solution()
                        .check_feasible(&self.instance(), false)
                        .is_ok(),
                    "epoch {epoch} violated cumulative feasibility"
                );
            } else {
                // The base-graph check is wrong under mutation (a raise
                // legitimately exceeds the base capacity; a lower must
                // bound tighter): audit against effective capacities.
                assert!(
                    self.verify_active_feasibility().is_ok(),
                    "epoch {epoch} violated effective-capacity feasibility: {:?}",
                    self.verify_active_feasibility()
                );
            }
        }

        let released = released.len();
        let rejected = arrivals.len() - accepted;
        self.push_event(EngineEvent::EpochCompleted {
            epoch,
            accepted,
            rejected,
            released,
            value: value_admitted,
            revenue,
            stop,
        });
        let elapsed = started.elapsed();
        self.metrics
            .record_batch(arrivals.len(), accepted, released, value_admitted, revenue);
        if self.config.obs.is_enabled() {
            self.record_commit_gauges(elapsed);
        }
        EpochReport {
            epoch,
            arrivals: arrivals.len(),
            accepted,
            rejected,
            released,
            value_admitted,
            revenue,
            stop,
            min_residual: self.residual.min_residual(),
            total_utilization: self.residual.total_utilization(),
            elapsed,
        }
    }

    /// Per-epoch domain gauges, recorded only when the recorder is on
    /// (the gauge math itself — a pass over the edges — must not run on
    /// untraced epochs). Edges are grouped into capacity octaves
    /// (`class k` = capacities in `[2^k, 2^{k+1})`), the resolution at
    /// which the paper's regime bound `B` moves: each class's gauge is
    /// its mean utilization, making "which capacity tier is filling up"
    /// a first-class signal.
    fn record_commit_gauges(&self, elapsed: Duration) {
        let obs = &self.config.obs;
        let mut class_used: std::collections::BTreeMap<i32, (f64, f64)> =
            std::collections::BTreeMap::new();
        let residuals = self.residual.residuals();
        for (e, edge) in self.graph.edges().iter().enumerate() {
            let cap = edge.capacity;
            if cap <= 0.0 {
                continue;
            }
            let class = cap.log2().floor() as i32;
            let entry = class_used.entry(class).or_insert((0.0, 0.0));
            entry.0 += (cap - residuals[e]).max(0.0) / cap;
            entry.1 += 1.0;
        }
        for (class, (util_sum, edges)) in class_used {
            obs.gauge_set(&format!("residual.util.c{class}"), util_sum / edges);
        }
        obs.gauge_set(
            "engine.total_utilization",
            self.residual.total_utilization(),
        );
        obs.gauge_set("engine.min_residual", self.residual.min_residual());
        obs.gauge_set("engine.events_dropped", self.events_dropped as f64);
        // Live admissions: every admission is released or evicted at
        // most once, and these counters survive a restore.
        let m = &self.metrics;
        obs.gauge_set(
            "engine.active_admissions",
            (m.accepted - m.released - m.evicted) as f64,
        );
        obs.histogram_record("engine.epoch_wall_us", elapsed.as_micros() as u64);
    }

    /// Convenience: submit permanent (no-TTL) requests.
    pub fn submit_requests(&mut self, requests: &[Request]) -> EpochReport {
        let arrivals: Vec<Arrival> = requests.iter().copied().map(Arrival::permanent).collect();
        self.submit_batch(&arrivals)
    }

    /// Release admissions expiring at the current epoch, returning their
    /// admission indices in release order (ascending expiry epoch, then
    /// admission order within it — the deterministic order the expiry
    /// index was built in).
    fn release_expired(&mut self) -> Vec<usize> {
        let epoch = self.epoch;
        let mut released = Vec::new();
        let record = self.config.events == EventLevel::Request;
        while let Some(entry) = self.expiry_index.first_entry() {
            if *entry.key() > epoch {
                break;
            }
            for idx in entry.remove() {
                let adm = &mut self.admissions[idx];
                debug_assert!(!adm.released, "expiry index entry released twice");
                self.residual
                    .release(&adm.path, self.requests[adm.request.index()].demand);
                adm.released = true;
                released.push(idx);
                let request = adm.request;
                if record {
                    self.push_event(EngineEvent::Released { epoch, request });
                }
            }
        }
        released
    }

    // ------------------------------------------------------------------
    // Dynamic topology: mutation + deterministic repair.
    // ------------------------------------------------------------------

    /// Apply a batch of topology mutations between epochs and repair the
    /// engine deterministically:
    ///
    /// 1. every event is validated, then applied to the overlay (all or
    ///    nothing — a rejected event leaves the engine untouched);
    /// 2. edges whose committed load now exceeds their effective
    ///    capacity (a lowered link, or a failed one at capacity zero)
    ///    evict affected active admissions in **(admission-epoch,
    ///    global-id) order** until every surviving edge is feasible —
    ///    each eviction refunds the admission's critical-value payment
    ///    through the event log ([`EngineEvent::Evicted`], recorded at
    ///    every event level so the refund audit never depends on
    ///    verbosity);
    /// 3. evicted flows whose TTL has not lapsed are queued for
    ///    re-admission ([`Engine::drain_readmissions`]) with their
    ///    original absolute expiry preserved;
    /// 4. the residual tracker is **rebuilt from scratch** over the
    ///    effective capacities by re-committing every surviving active
    ///    admission in admission order — so a repaired engine's residual
    ///    state is bit-identical to a fresh tracker on the post-mutation
    ///    network replaying the surviving admissions (no float residue
    ///    from the evictions survives).
    ///
    /// An empty event slice is a strict no-op. Node drains never evict
    /// (they only block new admissions); capacity raises never evict
    /// (they only rebuild the tracker with more headroom).
    pub fn apply_topology(
        &mut self,
        events: &[TopologyEvent],
    ) -> Result<TopologyReport, TopologyError> {
        let obs = self.config.obs.clone();
        let _span = obs.span(Phase::TopologyApply);
        let from_version = self.topology.version();
        for &ev in events {
            self.topology.validate(ev)?;
        }
        if events.is_empty() {
            return Ok(TopologyReport {
                from_version,
                to_version: from_version,
                evicted: 0,
                refunded: 0.0,
                readmissions: 0,
                links_down: self.topology.links_down(),
            });
        }
        for &ev in events {
            self.topology
                .apply(ev)
                .expect("pre-validated event must apply");
        }
        let evict = self.select_evictions();
        Ok(self.finish_repair(from_version, &evict))
    }

    /// Deterministic eviction scan over the post-mutation overlay:
    /// committed loads are re-derived from the active admissions (in
    /// admission order, the same summation a fresh tracker would do),
    /// then admissions are visited in (admission-epoch, global-id)
    /// order and evicted while they touch a still-violating edge. The
    /// violating set only shrinks as loads drop, so one ordered pass
    /// suffices and the result is independent of scan bookkeeping.
    fn select_evictions(&self) -> Vec<usize> {
        let mut loads = self.active_loads();
        let mut violating: Vec<bool> = (0..loads.len())
            .map(|e| self.overloaded(EdgeId(e as u32), loads[e]))
            .collect();
        let mut remaining = violating.iter().filter(|&&v| v).count();
        if remaining == 0 {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..self.admissions.len())
            .filter(|&i| !self.admissions[i].released)
            .collect();
        order.sort_by_key(|&i| (self.admissions[i].epoch, self.admissions[i].request.0));
        let mut evict = Vec::new();
        for i in order {
            if remaining == 0 {
                break;
            }
            let adm = &self.admissions[i];
            if !adm.path.edges().iter().any(|e| violating[e.index()]) {
                continue;
            }
            let d = self.requests[adm.request.index()].demand;
            for &e in adm.path.edges() {
                loads[e.index()] -= d;
                let was = violating[e.index()];
                let now = self.overloaded(e, loads[e.index()]);
                violating[e.index()] = now;
                if was && !now {
                    remaining -= 1;
                }
            }
            evict.push(i);
        }
        evict
    }

    /// Per-edge loads of the active admissions, summed in admission
    /// order (the summation a fresh tracker would do).
    fn active_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0f64; self.graph.num_edges()];
        for a in self.admissions.iter().filter(|a| !a.released) {
            let d = self.requests[a.request.index()].demand;
            for &e in a.path.edges() {
                loads[e.index()] += d;
            }
        }
        loads
    }

    /// Whether `load` overloads edge `e` past the feasibility tolerance
    /// of its effective capacity: the one rule repair evicts by and
    /// [`Engine::verify_active_feasibility`] audits by, so a repaired
    /// engine always passes its own audit.
    fn overloaded(&self, e: EdgeId, load: f64) -> bool {
        let cap = self.topology.effective_capacity(e);
        load > cap * (1.0 + 1e-9) + 1e-9
    }

    /// Tail of the repair pass: evict + refund, queue re-admissions,
    /// rebuild the residual tracker over the effective capacities,
    /// refresh the repair gauges, and report.
    fn finish_repair(&mut self, from_version: u64, evict: &[usize]) -> TopologyReport {
        let obs = self.config.obs.clone();
        let epoch = self.epoch;
        let mut refunded = 0.0f64;
        {
            let _span = obs.span_attr(Phase::RepairEvict, "evictions", evict.len() as u64);
            for &i in evict {
                let adm = &mut self.admissions[i];
                debug_assert!(!adm.released, "eviction of a released admission");
                adm.released = true;
                adm.evicted = true;
                // Purge the expiry index, or `release_expired` would
                // double-release the slot when the TTL lapses.
                if let Some(exp) = adm.expires_at {
                    if let Some(slots) = self.expiry_index.get_mut(&exp) {
                        slots.retain(|&j| j != i);
                        if slots.is_empty() {
                            self.expiry_index.remove(&exp);
                        }
                    }
                }
                let request = self.admissions[i].request;
                let refund = self.admissions[i].payment;
                refunded += refund;
                self.metrics.evicted += 1;
                self.metrics.refunded += refund;
                // Always logged (not gated on EventLevel::Request): the
                // refund audit must hold at every verbosity.
                self.push_event(EngineEvent::Evicted {
                    epoch,
                    request,
                    refund,
                });
            }
            obs.counter_add("engine.evictions_total", evict.len() as u64);
        }

        let mut readmissions = 0usize;
        {
            let _span = obs.span(Phase::RepairReadmit);
            let next_epoch = epoch + 1;
            for &i in evict {
                let adm = &self.admissions[i];
                let request = self.requests[adm.request.index()];
                let arrival = match adm.expires_at {
                    None => Some(Arrival::permanent(request)),
                    // Preserve the absolute expiry epoch; a flow whose
                    // TTL lapses by the next epoch is not re-queued (it
                    // would be released on arrival).
                    Some(exp) if exp > next_epoch => {
                        Some(Arrival::with_ttl(request, (exp - next_epoch) as u32))
                    }
                    Some(_) => None,
                };
                if let Some(a) = arrival {
                    self.readmit_queue.push(a);
                    readmissions += 1;
                }
            }
            self.health.note_readmissions(readmissions, epoch);
        }

        self.rebuild_residual();
        obs.gauge_set("engine.links_down", self.topology.links_down() as f64);
        TopologyReport {
            from_version,
            to_version: self.topology.version(),
            evicted: evict.len(),
            refunded,
            readmissions,
            links_down: self.topology.links_down(),
        }
    }

    /// Rebuild the residual tracker from scratch: effective capacities,
    /// then every surviving active admission committed in admission
    /// order — exactly the additions a fresh engine on the post-mutation
    /// network would perform replaying the surviving admissions, so the
    /// repaired loads are bit-identical to that fresh run by
    /// construction.
    fn rebuild_residual(&mut self) {
        let mut residual = ResidualCaps::with_caps(self.topology.effective_capacities())
            .expect("validated topology capacities are finite and non-negative");
        for a in self.admissions.iter().filter(|a| !a.released) {
            residual.commit(&a.path, self.requests[a.request.index()].demand);
        }
        self.residual = residual;
    }

    /// Drain the re-admission queue: flows evicted by topology repairs,
    /// as arrivals for the next batch (original request, TTL shortened
    /// to preserve the absolute expiry). The driver merges these ahead
    /// of the epoch's scheduled arrivals.
    pub fn drain_readmissions(&mut self) -> Vec<Arrival> {
        self.health.note_drain();
        std::mem::take(&mut self.readmit_queue)
    }

    /// The dynamic-topology overlay (version, event log, fingerprint,
    /// effective capacities).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Audit the active admissions against the **effective** (topology-
    /// aware) capacities: recompute per-edge loads and check every edge
    /// within the feasibility tolerance. This is the post-mutation
    /// replacement for `active_solution().check_feasible(..)`, whose
    /// base-graph capacities are wrong once links have been resized.
    pub fn verify_active_feasibility(&self) -> Result<(), String> {
        for (e, &load) in self.active_loads().iter().enumerate() {
            let edge = EdgeId(e as u32);
            if self.overloaded(edge, load) {
                let cap = self.topology.effective_capacity(edge);
                return Err(format!(
                    "edge {e} overloaded: load {load} > effective capacity {cap}"
                ));
            }
        }
        Ok(())
    }

    /// Price every winner of `trace` at its exact critical value:
    /// `instance` and `ctx` are what `trace` was recorded (or, for a
    /// sharded epoch, merged with [`EpochResumeTrace::merge`]) under.
    /// This is the engine's own plan-time pricing and the payment entry
    /// point of sharded deployments.
    ///
    /// Each winner costs one resume of its selection step with itself
    /// masked out ([`ufp_core::critical_value_exact`]). The passes are
    /// read-only replays, so winners fan out on the engine's `ufp_par`
    /// pool, each under a `payment.probe` span whose `suffix_len`
    /// records the steps past its resume point.
    ///
    /// Returns one payment per request of `instance`; losers, and
    /// everyone under `PaymentPolicy::None`, pay 0.
    pub fn price_trace(
        &self,
        instance: &UfpInstance,
        ctx: &EpochContext<'_>,
        trace: &EpochResumeTrace,
    ) -> Vec<f64> {
        let mut payments = vec![0.0; instance.num_requests()];
        if self.config.payments == PaymentPolicy::None {
            return payments;
        }
        let config = &self.allocator_config;
        let total_steps = trace.num_steps();
        let steps: Vec<usize> = (0..total_steps).collect();
        let priced = self.config.pool.map(&steps, |_, &step| {
            let _span = config.obs.span_attr(
                Phase::PaymentProbe,
                "suffix_len",
                (total_steps - step) as u64,
            );
            critical_value_exact(instance, config, Some(ctx), trace, step)
        });
        for (step, payment) in priced.into_iter().enumerate() {
            payments[trace.selected(step).index()] = payment;
        }
        payments
    }

    // ------------------------------------------------------------------
    // Snapshot / restore.
    // ------------------------------------------------------------------

    /// Serialize the full engine state into a framed snapshot (see
    /// [`crate::snapshot`] for the format). The graph itself is not
    /// included — restore takes it back and verifies it against the
    /// stored fingerprint.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        crate::snapshot::encode_engine(self, &[])
    }

    /// Like [`Engine::snapshot_bytes`], with an opaque caller blob
    /// (driver RNG stream position, trace cursor, …) carried in the
    /// snapshot's driver section.
    pub fn snapshot_bytes_with(&self, driver: &[u8]) -> Vec<u8> {
        crate::snapshot::encode_engine(self, driver)
    }

    /// Restore an engine from [`Engine::snapshot_bytes`] output over the
    /// given graph and configuration ([`crate::SnapshotStore`] is the
    /// file API). Continuation is **bit-identical**: submitting the
    /// same post-snapshot batches to the restored engine reproduces the
    /// uninterrupted run's epochs, payments, and metrics exactly. Fails
    /// with a typed [`CodecError`] on corruption, truncation, version
    /// skew, or fingerprint mismatch — never panics, never returns a
    /// partially-restored engine.
    pub fn restore_from_bytes(
        bytes: &[u8],
        graph: Arc<Graph>,
        config: EngineConfig,
    ) -> Result<Engine, CodecError> {
        crate::snapshot::decode_engine(bytes, graph, config).map(|(engine, _)| engine)
    }

    /// [`Engine::restore_from_bytes`], additionally returning the opaque
    /// driver blob stored by [`Engine::snapshot_bytes_with`].
    pub fn restore_from_bytes_with_driver(
        bytes: &[u8],
        graph: Arc<Graph>,
        config: EngineConfig,
    ) -> Result<(Engine, Vec<u8>), CodecError> {
        crate::snapshot::decode_engine(bytes, graph, config)
    }

    /// Bring a restored engine onto a possibly **mutated** topology: the
    /// explicit, typed migration path for snapshots taken before further
    /// topology events were applied.
    ///
    /// The engine's overlay event log must be a *prefix* of `target`'s —
    /// i.e. the live topology must descend from the snapshot's by
    /// appending events. If it is:
    ///
    /// - identical log → nothing to do, `None`;
    /// - proper prefix → the missing event delta
    ///   ([`ufp_netgraph::Topology::events_since`]) is replayed through
    ///   the normal repair pass ([`Engine::apply_topology`]) — evicting
    ///   newly infeasible admissions with refunds, queueing
    ///   re-admissions — and the [`TopologyMigration`] report is
    ///   returned.
    ///
    /// Any divergence (the target rewrote history, or belongs to a
    /// different base graph) is a typed [`CodecError::GraphMismatch`]
    /// that leaves the engine untouched — never a silent
    /// reinterpretation of loads over the wrong capacities, never a
    /// panic.
    pub fn migrate_to(
        &mut self,
        target: &Topology,
    ) -> Result<Option<TopologyMigration>, CodecError> {
        let stored = self.topology.log();
        let live = target.log();
        if stored.len() > live.len() || stored != &live[..stored.len()] {
            return Err(CodecError::GraphMismatch {
                context: "snapshot topology is not an ancestor of the live topology",
            });
        }
        if stored.len() == live.len() {
            return Ok(None);
        }
        let delta = target.events_since(self.topology.version()).to_vec();
        // `apply_topology` validates the whole delta before it mutates.
        let report = self
            .apply_topology(&delta)
            .map_err(|_| CodecError::GraphMismatch {
                context: "topology migration delta does not apply to the restored graph",
            })?;
        debug_assert_eq!(self.topology.fingerprint(), target.fingerprint());
        Ok(Some(TopologyMigration {
            from_version: report.from_version,
            to_version: report.to_version,
            evicted: report.evicted,
            refunded: report.refunded,
            readmissions: report.readmissions,
        }))
    }

    // ------------------------------------------------------------------
    // Read-out.
    // ------------------------------------------------------------------

    /// The base network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared handle to the base network.
    pub fn shared_graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Running metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The event log accumulated so far.
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// Drain the event log: returns all retained events and leaves the
    /// log empty. Long-running deployments ship events elsewhere and
    /// call this regularly to keep engine memory bounded; events that
    /// overflow [`EngineConfig::event_capacity`] between drains are
    /// rotated out oldest-first and tallied in
    /// [`Engine::events_dropped`].
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.events)
    }

    /// Events discarded by the retention cap since the engine started
    /// (0 unless the log overflowed between drains).
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Residual-capacity tracker.
    pub fn residual(&self) -> &ResidualCaps {
        &self.residual
    }

    /// Per-edge utilization histogram over `buckets` bins (see
    /// [`ResidualCaps::utilization_histogram`]).
    pub fn utilization_histogram(&self, buckets: usize) -> Vec<usize> {
        self.residual.utilization_histogram(buckets)
    }

    /// All admissions ever made, including released ones.
    pub fn admissions(&self) -> &[Admission] {
        &self.admissions
    }

    /// The append-only global request registry (cheap slice access —
    /// [`Engine::instance`] clones it).
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests ever registered.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// The whole submitted history as one instance over the base graph;
    /// request ids are global.
    pub fn instance(&self) -> UfpInstance {
        UfpInstance::from_shared(Arc::clone(&self.graph), self.requests.clone())
    }

    /// Every admission ever made, as a solution over [`Engine::instance`].
    /// Feasible against the base capacities whenever no TTL was used
    /// (without churn, cumulative == active).
    pub fn cumulative_solution(&self) -> UfpSolution {
        UfpSolution {
            routed: self
                .admissions
                .iter()
                .map(|a| (a.request, a.path.clone()))
                .collect(),
        }
    }

    /// Currently-held admissions, as a solution over [`Engine::instance`].
    /// Always feasible against the base capacities.
    pub fn active_solution(&self) -> UfpSolution {
        UfpSolution {
            routed: self
                .admissions
                .iter()
                .filter(|a| !a.released)
                .map(|a| (a.request, a.path.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaymentPolicy;
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn one_link(cap: f64) -> Graph {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), cap);
        gb.build()
    }

    fn unit_requests(k: usize, value: impl Fn(usize) -> f64) -> Vec<Request> {
        (0..k)
            .map(|i| Request::new(n(0), n(1), 1.0, value(i)))
            .collect()
    }

    #[test]
    fn single_epoch_routes_and_reports() {
        let mut engine = Engine::new(one_link(100.0), EngineConfig::with_epsilon(0.5));
        let report = engine.submit_requests(&unit_requests(10, |_| 1.0));
        assert_eq!(report.epoch, 1);
        assert_eq!(report.accepted, 10);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.value_admitted, 10.0);
        assert_eq!(report.stop, StopReason::Exhausted);
        assert!(engine
            .cumulative_solution()
            .check_feasible(&engine.instance(), false)
            .is_ok());
        assert_eq!(engine.metrics().acceptance_rate(), 1.0);
    }

    #[test]
    fn a_refused_batch_leaves_the_engine_untouched() {
        let mut engine = Engine::new(one_link(100.0), EngineConfig::with_epsilon(0.5));
        engine.submit_requests(&unit_requests(3, |_| 1.0));
        let before = engine.snapshot_bytes();
        let good = Arrival::permanent(Request::new(n(0), n(1), 1.0, 2.0));
        // A bad arrival late in the batch: an unnormalized demand, then
        // an endpoint outside the two-node graph.
        for bad in [
            Request::new(n(0), n(1), 1.5, 1.0),
            Request::new(n(0), n(7), 1.0, 1.0),
        ] {
            let batch = [good, good, Arrival::permanent(bad)];
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.submit_batch(&batch)
            }));
            assert!(refused.is_err(), "bad batch accepted");
            assert_eq!(
                engine.snapshot_bytes(),
                before,
                "refused batch left a trace"
            );
        }
        assert_eq!(engine.submit_batch(&[good]).accepted, 1);
    }

    #[test]
    fn capacity_is_consumed_across_epochs() {
        // Capacity 10; three epochs of 8 unit requests each must admit
        // at most 10 in total, and later epochs see less room.
        let mut engine = Engine::new(one_link(10.0), EngineConfig::with_epsilon(1.0));
        let mut total = 0;
        let mut per_epoch = Vec::new();
        for _ in 0..3 {
            let r = engine.submit_requests(&unit_requests(8, |i| 1.0 + i as f64));
            total += r.accepted;
            per_epoch.push(r.accepted);
        }
        assert!(total <= 10, "admitted {total} > capacity 10");
        assert!(
            per_epoch[0] >= per_epoch[2],
            "later epochs can't admit more"
        );
        assert!(engine
            .cumulative_solution()
            .check_feasible(&engine.instance(), false)
            .is_ok());
    }

    #[test]
    fn ttl_release_restores_capacity() {
        // carry_decay 0: isolate the TTL/release mechanics from the
        // congestion-memory throttle (which a default engine keeps).
        let cfg = EngineConfig {
            carry_decay: 0.0,
            ..EngineConfig::with_epsilon(1.0)
        };
        let mut engine = Engine::new(one_link(4.0), cfg);
        // Epoch 1: fill with TTL-1 admissions.
        let arrivals: Vec<Arrival> = unit_requests(4, |_| 2.0)
            .into_iter()
            .map(|r| Arrival::with_ttl(r, 1))
            .collect();
        let r1 = engine.submit_batch(&arrivals);
        assert!(r1.accepted > 0);
        let held = r1.accepted;
        // Epoch 2: previous admissions expire at its start, so the same
        // demand fits again.
        let r2 = engine.submit_requests(&unit_requests(4, |_| 2.0));
        assert_eq!(r2.released, held);
        assert_eq!(r2.accepted, held, "released capacity must be reusable");
        // Active solution stays feasible; cumulative would overcommit the
        // link, which is exactly why releases exist.
        assert!(engine
            .active_solution()
            .check_feasible(&engine.instance(), false)
            .is_ok());
        assert_eq!(engine.metrics().released, held as u64);
    }

    #[test]
    fn below_floor_edge_unfreezes_after_full_release() {
        // Edge capacity (4) sits below the fixed floor (10), so the edge
        // is usable only while effectively empty. Fractional demands
        // leave ~1e-17 load residue after release; the usable mask must
        // treat that as empty or the edge freezes forever.
        let cfg = EngineConfig {
            residual_floor: crate::config::ResidualFloor::Fixed(10.0),
            carry_decay: 0.0,
            ..EngineConfig::with_epsilon(1.0)
        };
        let mut engine = Engine::new(one_link(4.0), cfg);
        let arrivals: Vec<Arrival> = [0.1, 0.2]
            .iter()
            .map(|&d| Arrival::with_ttl(Request::new(n(0), n(1), d, 1.0), 1))
            .collect();
        let r1 = engine.submit_batch(&arrivals);
        assert_eq!(r1.accepted, 2);
        // Epoch 2 releases both; load is now float residue, not 0.0.
        let r2 = engine.submit_batch(&arrivals);
        assert_eq!(r2.released, 2);
        assert_eq!(r2.accepted, 2, "released edge must become usable again");
    }

    #[test]
    fn payments_charged_under_critical_value_policy() {
        let cfg = EngineConfig::with_epsilon(1.0).with_payments(PaymentPolicy::critical_value());
        let mut engine = Engine::new(one_link(2.0), cfg);
        // Two slots, three bids: winners pay, revenue is positive.
        let report = engine.submit_requests(&unit_requests(3, |i| [5.0, 3.0, 2.0][i]));
        assert_eq!(report.accepted, 2);
        assert!(report.revenue > 0.0, "competition must price the slots");
        for adm in engine.admissions() {
            let declared = engine.instance().request(adm.request).value;
            assert!(adm.payment <= declared + 1e-6);
        }
    }

    #[test]
    fn events_trace_the_run() {
        let cfg = EngineConfig {
            events: EventLevel::Request,
            ..EngineConfig::with_epsilon(1.0)
        };
        let mut engine = Engine::new(one_link(2.0), cfg);
        engine.submit_requests(&unit_requests(3, |i| 1.0 + i as f64));
        let events = engine.drain_events();
        assert!(matches!(
            events[0],
            EngineEvent::EpochStarted { arrivals: 3, .. }
        ));
        let admitted = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::Admitted { .. }))
            .count();
        let rejected = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::Rejected { .. }))
            .count();
        assert_eq!(admitted + rejected, 3);
        assert!(matches!(
            events.last(),
            Some(EngineEvent::EpochCompleted { .. })
        ));
        assert!(engine.events().is_empty(), "drain_events drains");
    }

    #[test]
    fn event_log_rotates_at_capacity() {
        let cfg = EngineConfig {
            events: EventLevel::Request,
            event_capacity: 16,
            ..EngineConfig::with_epsilon(1.0)
        };
        let mut engine = Engine::new(one_link(100.0), cfg);
        for _ in 0..20 {
            engine.submit_requests(&unit_requests(2, |_| 1.0));
        }
        // 20 epochs × 4 events each ≫ capacity 16: oldest half rotates
        // out, newest events survive.
        assert!(engine.events().len() <= 16);
        assert!(engine.events_dropped() > 0);
        let drained = engine.drain_events();
        assert!(drained
            .iter()
            .any(|e| matches!(e, EngineEvent::EpochCompleted { epoch: 20, .. })));
        assert!(engine.events().is_empty(), "drain_events empties the log");
        let total = drained.len() as u64 + engine.events_dropped();
        assert_eq!(total, 80, "retained + dropped must account for all events");
    }

    #[test]
    fn epoch_event_level_skips_per_request_events() {
        // Epoch granularity is the default — a long-lived engine must not
        // grow its log with traffic unless per-request events are opted
        // into.
        let mut engine = Engine::new(one_link(10.0), EngineConfig::with_epsilon(1.0));
        engine.submit_requests(&unit_requests(5, |_| 1.0));
        assert!(engine.events().iter().all(|e| matches!(
            e,
            EngineEvent::EpochStarted { .. } | EngineEvent::EpochCompleted { .. }
        )));
    }

    #[test]
    fn instance_views_share_the_engine_graph() {
        // Zero-copy contract: no epoch or read-out ever deep-copies the
        // network.
        let engine = Engine::new(one_link(4.0), EngineConfig::default());
        assert!(std::ptr::eq(engine.graph(), engine.instance().graph()));
        let shared = std::sync::Arc::clone(engine.shared_graph());
        let other = Engine::from_shared(shared, EngineConfig::default());
        assert!(std::ptr::eq(engine.graph(), other.graph()));
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut gb = GraphBuilder::directed(4);
            gb.add_edge(n(0), n(1), 12.0);
            gb.add_edge(n(1), n(3), 12.0);
            gb.add_edge(n(0), n(2), 12.0);
            gb.add_edge(n(2), n(3), 12.0);
            let mut engine = Engine::new(gb.build(), EngineConfig::with_epsilon(0.5));
            for e in 0..4 {
                let reqs: Vec<Request> = (0..6)
                    .map(|i| {
                        Request::new(
                            n(0),
                            n(3),
                            0.5 + 0.1 * (i % 3) as f64,
                            1.0 + ((e + i) % 5) as f64,
                        )
                    })
                    .collect();
                engine.submit_requests(&reqs);
            }
            engine
                .cumulative_solution()
                .routed
                .iter()
                .map(|(r, p)| (r.0, p.nodes().to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_batches_are_cheap_noops() {
        let mut engine = Engine::new(one_link(5.0), EngineConfig::default());
        let r = engine.submit_batch(&[]);
        assert_eq!(r.accepted, 0);
        assert_eq!(r.stop, StopReason::Exhausted);
        assert_eq!(engine.metrics().epochs, 1);
    }
}
