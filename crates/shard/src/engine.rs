//! The sharded engine: partitioned parallel epochs + deterministic
//! reconciliation.
//!
//! See the crate docs for the model; this module holds the
//! orchestration. The per-epoch pipeline is:
//!
//! 1. **Classify** the batch against the [`ShardPlan`]: shard-local
//!    arrivals go to their shard, cross-shard arrivals to the
//!    reconciler.
//! 2. **Open** every engine's epoch (TTL releases happen across all
//!    shards before any residual view is computed) and mirror the
//!    releases into the global residual tracker in deterministic order.
//! 3. **Lease**: compute the global residual/usable view, decay the
//!    global carry, and cut each boundary edge's lease for its two
//!    adjacent shards.
//! 4. **Plan** every shard's epoch in parallel on the `ufp_par` pool
//!    (nested dispatch is deadlock-free), each against the *global*
//!    capacities/usable/carry plus its own `routable` territory — so
//!    `B`, the guard threshold, and the weight arithmetic match a
//!    single global engine bit for bit.
//! 5. **Merge-replay** (reconciliation, part 1): consume the shards'
//!    recorded selection steps in global score order, re-applying each
//!    step's dual-weight bumps through one global [`DualWeights`] and
//!    enforcing the *global* guard — truncating any shard's
//!    over-admission the moment the merged dual mass crosses the
//!    threshold. Pure arithmetic replay; no shortest-path work. When
//!    payments are on, the pass also assembles the merged steps into a
//!    global [`EpochResumeTrace`] over the epoch's full batch.
//! 6. **Price + commit**: price every surviving winner at its exact
//!    critical value against the *merged* trace under the epoch-start
//!    frozen context (one read-only resumed pass per winner, fanned out
//!    on the `ufp_par` pool with `payment.probe` spans — the exact
//!    passes a single global engine would run), then commit
//!    each shard's surviving prefix in parallel with its payment slice
//!    supplied, mirror the admissions into the global state in merged
//!    order, and settle the lease ledger.
//! 7. **Reconcile** (part 2): route the cross-shard batch with the
//!    reconciler engine against the post-epoch global residuals and
//!    carry — a deterministic sequential pass.

use std::sync::Arc;
use std::time::Instant;

use ufp_core::{
    DualWeights, EpochContext, EpochResumeTrace, Request, RequestId, StopReason, UfpInstance,
};
use ufp_engine::health::{run_regret_oracle, HealthState, RegretContext};
use ufp_engine::{
    Admission, Arrival, Engine, EngineConfig, EngineEvent, EngineMetrics, EpochOverride, EpochPlan,
    EpochReport, EventLevel, PaymentPolicy, TopologyReport,
};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::EdgeId;
use ufp_netgraph::path::Path;
use ufp_netgraph::residual::ResidualCaps;
use ufp_netgraph::topology::{Topology, TopologyError, TopologyEvent};
use ufp_obs::Phase;

use crate::ledger::LeaseLedger;
use crate::partition::{EdgeOwner, ShardPlan};

/// Where a sharded deployment prices its critical-value payments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PaymentScope {
    /// Price winners against the **merged** replay trace, under the
    /// epoch-start frozen context — the exact pricing passes a single
    /// global engine would run, so payments are covered by the
    /// bit-identity contract unconditionally (guard-stopping passes
    /// included). This is the correct, default mode.
    #[default]
    GlobalTrace,
    /// Legacy per-shard pass: each shard prices its winners against its
    /// own local trace. A pass that guard-stops sees the shard's
    /// (smaller) dual mass instead of the global one and can misprice —
    /// kept only as the baseline `scripts/bench_pr8.sh` measures the
    /// global pass against.
    ShardLocal,
}

/// Configuration of a [`ShardedEngine`].
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// The per-engine configuration every shard (and the reconciler)
    /// runs with. `engine.pool` doubles as the shard-dispatch pool.
    pub engine: EngineConfig,
    /// Fraction of a boundary edge's global residual leased out per
    /// epoch, split evenly between its two adjacent shards, in `[0, 1]`.
    /// `0.0` routes all boundary traffic through the reconciliation
    /// pass; `1.0` hands the full residual to the shards (starving the
    /// reconciler on boundary edges for that epoch).
    pub lease_fraction: f64,
    /// Whether winners are priced against the merged global trace
    /// (default) or the legacy shard-local one.
    pub payment_scope: PaymentScope,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            engine: EngineConfig::default(),
            lease_fraction: 0.5,
            payment_scope: PaymentScope::default(),
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

/// One admission in the global ledger: where it lives and which global
/// request it belongs to. The owning engine holds the authoritative
/// record (path, payment, released flag); [`ShardedEngine::admission`]
/// materializes the global view.
#[derive(Clone, Copy, Debug)]
pub struct ShardAdmission {
    /// Owning engine: shard index, or `shards` for the reconciler.
    pub owner: u32,
    /// Index into the owner's [`Engine::admissions`].
    pub local_index: u32,
    /// Global request id (index into [`ShardedEngine::requests`]).
    pub request: RequestId,
}

/// Per-shard observability snapshot (see
/// [`ShardedEngine::shard_stats`]); the last row is the reconciler.
#[derive(Clone, Copy, Debug)]
pub struct ShardStats {
    /// Shard index (`shards` = the reconciler row).
    pub shard: usize,
    /// Requests routed to this engine so far.
    pub requests: usize,
    /// Admissions held by this engine (including released).
    pub admissions: usize,
    /// Cumulative wall-clock spent in this engine's *own* plan + commit
    /// phases (µs), measured by the orchestrator around the per-engine
    /// calls — it excludes time waiting on sibling shards or on the
    /// sequential merge, so on a multi-core host the per-shard values
    /// sum to more than the sharded wall-clock (that surplus *is* the
    /// parallelism).
    pub epoch_time_us: u64,
    /// Cumulative boundary-lease capacity granted (0 for the
    /// reconciler, which runs on full residuals).
    pub lease_granted: f64,
    /// Cumulative leased capacity committed.
    pub lease_used: f64,
    /// Lifetime lease utilization (0 when never granted).
    pub lease_utilization: f64,
}

/// Result of the merge-replay pass.
struct MergeOutcome {
    /// `(shard, step index)` in merged (global selection) order; every
    /// entry survived the global guard.
    merged: Vec<(usize, usize)>,
    /// Steps each shard keeps (prefix length).
    keep: Vec<usize>,
    /// The global guard tripped mid-merge.
    guard_tripped: bool,
    /// The post-merge dual mass exceeds the guard (used to classify
    /// leftover-rejection as `Guard` rather than `NoPath`, matching
    /// the single engine's check-before-discover order).
    final_over_guard: bool,
    /// The merged steps assembled as one global [`EpochResumeTrace`]
    /// over the epoch's full batch instance (requests id'd by batch
    /// position), built only when the global payment pass needs it.
    /// Step `k`'s `selected` is winner `k` in merged order.
    global_trace: Option<EpochResumeTrace>,
}

/// The sharded admission-control engine. Drop-in analogue of
/// [`Engine`] for partitioned deployments: same `submit_batch` /
/// read-out surface, same event and metrics shapes, with per-shard
/// epochs running in parallel under capacity leases and a global-guard
/// reconciliation.
#[derive(Debug)]
pub struct ShardedEngine {
    pub(crate) graph: Arc<Graph>,
    pub(crate) config: ShardConfig,
    pub(crate) plan: ShardPlan,
    /// One engine per shard; the reconciler is separate.
    pub(crate) engines: Vec<Engine>,
    pub(crate) reconciler: Engine,
    /// Resolved residual floor (identical resolution to the engines').
    pub(crate) floor: f64,
    /// Global committed-load tracker — the authority every epoch's
    /// residual view and lease grants are cut from.
    pub(crate) residual: ResidualCaps,
    /// Global carried dual exponents (decayed once per epoch; bumps
    /// merged in deterministic order).
    pub(crate) carry: Vec<f64>,
    /// Global request registry: ids match what a single engine fed the
    /// same stream would assign.
    pub(crate) requests: Vec<Request>,
    /// Global request id → (owner engine, owner-local request id).
    pub(crate) request_map: Vec<(u32, u32)>,
    /// Global admission order.
    pub(crate) admissions: Vec<ShardAdmission>,
    /// (owner, local admission index) → global admission index.
    pub(crate) admission_lookup: std::collections::HashMap<(u32, u32), u32>,
    pub(crate) epoch: u64,
    pub(crate) events: Vec<EngineEvent>,
    pub(crate) events_dropped: u64,
    pub(crate) metrics: EngineMetrics,
    pub(crate) ledger: LeaseLedger,
    /// Dynamic-topology overlay, the orchestrator's authority. Every
    /// owned engine mirrors the identical overlay (events are applied
    /// to all of them in [`ShardedEngine::apply_topology`]), but the
    /// *eviction decision* is made here, against the global loads —
    /// several shards share a boundary edge, so a per-shard scan would
    /// under-account.
    pub(crate) topology: Topology,
    /// Flows evicted by a topology repair, queued for re-admission in
    /// the next batch (drained by the driver).
    pub(crate) readmit_queue: Vec<Arrival>,
    /// Auction-health bookkeeping for the deployment as a whole (the
    /// global readmission queue, global eviction counter, global
    /// regret samples). Pure telemetry — see `ufp_engine::health`.
    pub(crate) health: HealthState,
    /// Wall-clock spent in each engine's *own* plan + commit phases
    /// (µs; index `shards` = the reconciler). Accumulated around the
    /// per-engine calls, so unlike the engines' internal latency
    /// metrics it excludes time spent waiting on the other shards or on
    /// the sequential merge.
    pub(crate) shard_epoch_us: Vec<u64>,
    /// Pre-interned per-shard gauge names (`shard.lease_utilization.s{s}`),
    /// built once at construction so the per-epoch gauge pass allocates
    /// nothing. Derived from the shard count — never snapshotted.
    pub(crate) lease_gauge_names: Vec<String>,
}

impl ShardedEngine {
    /// Create a sharded engine over `graph` with the given partition.
    pub fn new(graph: Arc<Graph>, plan: ShardPlan, config: ShardConfig) -> Self {
        config.validate();
        let shards = plan.shards();
        let floor = config
            .engine
            .residual_floor
            .resolve(graph.num_edges(), config.engine.epsilon);
        let engines = (0..shards)
            .map(|_| Engine::from_shared(Arc::clone(&graph), config.engine.clone()))
            .collect();
        let reconciler = Engine::from_shared(Arc::clone(&graph), config.engine.clone());
        let residual = ResidualCaps::new(&graph);
        let carry = vec![0.0; graph.num_edges()];
        let topology = Topology::new(&graph);
        ShardedEngine {
            config,
            plan,
            engines,
            reconciler,
            floor,
            residual,
            carry,
            requests: Vec::new(),
            request_map: Vec::new(),
            admissions: Vec::new(),
            admission_lookup: Default::default(),
            epoch: 0,
            events: Vec::new(),
            events_dropped: 0,
            metrics: EngineMetrics::default(),
            ledger: LeaseLedger::new(shards),
            topology,
            readmit_queue: Vec::new(),
            health: HealthState::default(),
            shard_epoch_us: vec![0; shards + 1],
            lease_gauge_names: lease_gauge_names(shards),
            graph,
        }
    }

    /// Number of shards (the reconciler not counted).
    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    /// The partition in force.
    pub fn partition(&self) -> &ShardPlan {
        &self.plan
    }

    /// Engine configuration (per shard) and lease policy.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    fn push_event(&mut self, event: EngineEvent) {
        if self.events.len() >= self.config.engine.event_capacity {
            let drop = self.config.engine.event_capacity / 2;
            self.events.drain(..drop);
            self.events_dropped += drop as u64;
        }
        self.events.push(event);
    }

    /// Engine behind `owner` (`shards` = the reconciler).
    fn engine(&self, owner: u32) -> &Engine {
        if owner as usize == self.engines.len() {
            &self.reconciler
        } else {
            &self.engines[owner as usize]
        }
    }

    /// The global usable mask: the single engine's rule exactly —
    /// `ResidualCaps::usable_mask` over the global residuals, ANDed
    /// with topology availability (down links and drained endpoints
    /// accept no new admissions; the mask's empty-edge clause would
    /// otherwise re-open an unloaded down link).
    fn global_usable(&self) -> Vec<bool> {
        let mut usable = self.residual.usable_mask(self.floor);
        if !self.topology.is_pristine() {
            for (e, u) in usable.iter_mut().enumerate() {
                *u = *u && self.topology.available(EdgeId(e as u32));
            }
        }
        usable
    }

    /// Process one batch of arrivals as a new epoch (see the module
    /// docs for the pipeline). Deterministic: identical streams produce
    /// identical admissions, payments, events, loads, and carry,
    /// regardless of pool parallelism.
    pub fn submit_batch(&mut self, arrivals: &[Arrival]) -> EpochReport {
        let started = Instant::now();
        let shards = self.shards();
        let reconciler_id = shards as u32;
        self.epoch += 1;
        let epoch = self.epoch;
        // Every shard engine shares this recorder handle (cloned
        // configs share one core), so the orchestrator owns the epoch
        // bracket and the per-engine open/plan/commit spans nest inside.
        let obs = self.config.engine.obs.clone();
        obs.epoch_begin(epoch);
        self.push_event(EngineEvent::EpochStarted {
            epoch,
            arrivals: arrivals.len(),
        });

        // 1. Classify the batch; register every arrival globally.
        let base = self.requests.len() as u32;
        let mut batches: Vec<Vec<Arrival>> = vec![Vec::new(); shards + 1];
        // Per owner: global request id of each sub-batch position.
        let mut local_to_global: Vec<Vec<u32>> = vec![Vec::new(); shards + 1];
        let mut owner_req_base: Vec<u32> = (0..shards)
            .map(|s| self.engines[s].num_requests() as u32)
            .collect();
        owner_req_base.push(self.reconciler.num_requests() as u32);
        for (i, a) in arrivals.iter().enumerate() {
            let owner = self.plan.request_shard(&a.request).unwrap_or(reconciler_id);
            let global = base + i as u32;
            self.requests.push(a.request);
            self.request_map.push((
                owner,
                owner_req_base[owner as usize] + batches[owner as usize].len() as u32,
            ));
            local_to_global[owner as usize].push(global);
            batches[owner as usize].push(*a);
        }
        let cross_batch = batches.pop().expect("reconciler batch");

        // 2. Open every epoch (shards first, then the reconciler) so TTL
        //    releases across the whole deployment precede the residual
        //    view; mirror them globally in deterministic order.
        let mut released_local: Vec<Vec<usize>> = Vec::with_capacity(shards + 1);
        for (s, batch) in batches.iter().enumerate() {
            released_local.push(self.engines[s].open_epoch(batch.len()));
        }
        let cross_released = self.reconciler.open_epoch(cross_batch.len());
        released_local.push(cross_released.clone());
        let released = self.mirror_releases(epoch, &released_local);

        // 3. Global residual view, decayed carry, and boundary leases.
        let lease_span = obs.span(Phase::ShardLease);
        for k in &mut self.carry {
            *k *= self.config.engine.carry_decay;
        }
        let capacities = self.residual.residuals();
        // The identical usable rule as the single engine's — centralized
        // in ResidualCaps::usable_mask (plus the same topology
        // availability AND), which the bit-identity contract depends on.
        let usable = self.global_usable();
        let carry_in = self.carry.clone();
        // Freeze the regret-oracle inputs from the same global residual
        // view every shard plans against (the oracle itself runs after
        // the epoch bracket closes, on clones only).
        let regret_ctx = RegretContext::capture(
            &self.config.engine.health,
            &obs,
            epoch,
            &capacities,
            &usable,
            arrivals,
        );
        let mut lease_granted = vec![0.0f64; shards];
        let contexts: Vec<(Vec<f64>, Vec<bool>, Vec<bool>)> = (0..shards)
            .map(|s| {
                let mut caps_s = capacities.clone();
                let mut usable_s = usable.clone();
                let mut routable_s = vec![false; capacities.len()];
                for e in 0..capacities.len() {
                    match self.plan.edge_owner(EdgeId(e as u32)) {
                        EdgeOwner::Interior(x) if x as usize == s => routable_s[e] = true,
                        EdgeOwner::Boundary(a, b) if a as usize == s || b as usize == s => {
                            let lease = self.config.lease_fraction * capacities[e] / 2.0;
                            lease_granted[s] += lease;
                            caps_s[e] = lease;
                            usable_s[e] = usable[e] && lease >= self.floor;
                            routable_s[e] = usable_s[e];
                        }
                        _ => {}
                    }
                }
                (caps_s, usable_s, routable_s)
            })
            .collect();
        drop(lease_span);

        // 4. Plan every shard's epoch in parallel. Override mode always
        //    traces, so the merge below can replay each step verbatim.
        let pool = self.config.engine.pool;
        let shard_work: Vec<(Vec<Arrival>, Vec<usize>)> = batches
            .into_iter()
            .zip(released_local[..shards].iter().cloned())
            .collect();
        let (plans, plan_us): (Vec<EpochPlan>, Vec<u64>) = {
            let contexts = &contexts;
            let shard_work = &shard_work;
            let carry_in = &carry_in;
            pool.map_mut(&mut self.engines, |s, engine| {
                let begun = Instant::now();
                let (caps_s, usable_s, routable_s) = &contexts[s];
                let ov = EpochOverride {
                    capacities: caps_s,
                    usable: usable_s,
                    routable: Some(routable_s),
                    carry: carry_in,
                };
                let plan =
                    engine.plan_epoch_in(&shard_work[s].0, shard_work[s].1.clone(), Some(&ov));
                (plan, begun.elapsed().as_micros() as u64)
            })
            .into_iter()
            .unzip()
        };
        let shard_stops: Vec<StopReason> = plans
            .iter()
            .map(|p| p.outcome().run.trace.stop_reason)
            .collect();

        // 5. Merge-replay with the global guard; bumps land in the
        //    global carry in merged order (the order a single engine
        //    would have applied them). When the global payment pass is
        //    on, the merge also assembles the merged steps into one
        //    global resume trace over the epoch's batch.
        let global_payments = self.config.payment_scope == PaymentScope::GlobalTrace
            && !matches!(self.config.engine.payments, PaymentPolicy::None);
        let merge = {
            let _span = obs.span_attr(
                Phase::ShardMergeReplay,
                "steps",
                plans.iter().map(|p| p.num_steps() as u64).sum(),
            );
            merge_replay(
                &capacities,
                &usable,
                &carry_in,
                &mut self.carry,
                self.config.engine.epsilon,
                &plans,
                &local_to_global,
                &self.requests,
                base,
                global_payments,
            )
        };

        // 6a. Global payment pass: price every surviving winner at its
        //     exact critical value against the *merged* trace, under
        //     the epoch-start frozen context (capacities / usable /
        //     carry captured in step 3) — the exact passes a single
        //     global engine would run, guard stops included. Passes
        //     are read-only replays; the entry point fans them
        //     out on the pool under `payment.probe` spans. The results
        //     are scattered back into per-shard, batch-local payment
        //     slices for the deferred commits below.
        let shard_payments: Option<Vec<Vec<f64>>> = merge.global_trace.as_ref().map(|gtrace| {
            let winners: Vec<(RequestId, usize)> = (0..gtrace.num_steps())
                .map(|k| (gtrace.step(k).selected, k))
                .collect();
            let epoch_requests: Vec<Request> = arrivals.iter().map(|a| a.request).collect();
            let instance = UfpInstance::from_shared(Arc::clone(&self.graph), epoch_requests);
            let ctx = EpochContext {
                capacities: &capacities,
                usable: &usable,
                carry: &carry_in,
                routable: None,
            };
            let priced = self
                .reconciler
                .price_winners_against_trace(&instance, &ctx, gtrace, &winners);
            let mut per_shard: Vec<Vec<f64>> =
                shard_work.iter().map(|(b, _)| vec![0.0; b.len()]).collect();
            for (k, &(s, j)) in merge.merged.iter().enumerate() {
                let trace = plans[s].trace().expect("override plans are traced");
                per_shard[s][trace.step(j).selected.index()] = priced[k];
            }
            per_shard
        });

        // 6b. Commit surviving prefixes in parallel (each with its
        //     globally-priced payment slice when the pass ran, or the
        //     legacy shard-local pricing otherwise), then mirror into
        //     the global state in merged order.
        let adm_base: Vec<u32> = (0..shards)
            .map(|s| self.engines[s].admissions().len() as u32)
            .collect();
        let mut shard_payments = shard_payments;
        type CommitSlot = (EpochPlan, usize, Option<Vec<f64>>);
        let plan_slots: Vec<std::sync::Mutex<Option<CommitSlot>>> = plans
            .into_iter()
            .zip(merge.keep.iter())
            .enumerate()
            .map(|(s, (p, &k))| {
                let pay = shard_payments.as_mut().map(|ps| std::mem::take(&mut ps[s]));
                std::sync::Mutex::new(Some((p, k, pay)))
            })
            .collect();
        let commit_us: Vec<u64> = {
            let slots = &plan_slots;
            pool.map_mut(&mut self.engines, |s, engine| {
                let begun = Instant::now();
                let (plan, keep, pay) = slots[s]
                    .lock()
                    .expect("plan slot")
                    .take()
                    .expect("each plan committed exactly once");
                match pay {
                    Some(p) => {
                        engine.commit_epoch_with_payments(plan, Some(keep), p);
                    }
                    None => {
                        engine.commit_epoch(plan, Some(keep));
                    }
                }
                begun.elapsed().as_micros() as u64
            })
        };
        for s in 0..shards {
            self.shard_epoch_us[s] += plan_us[s] + commit_us[s];
        }

        // Mirror the merged admissions into the global state.
        let mut accepted = 0usize;
        let mut value_admitted = 0.0f64;
        let mut revenue = 0.0f64;
        let mut admitted_global = vec![false; arrivals.len()];
        let mut lease_used = vec![0.0f64; shards];
        let record = self.config.engine.events == EventLevel::Request;
        for &(s, j) in &merge.merged {
            let local_index = adm_base[s] + j as u32;
            let adm = &self.engines[s].admissions()[local_index as usize];
            let batch_pos = (adm.request.0 - owner_req_base[s]) as usize;
            let global = local_to_global[s][batch_pos];
            let demand = self.requests[global as usize].demand;
            for &e in adm.path.edges() {
                if matches!(self.plan.edge_owner(e), EdgeOwner::Boundary(..)) {
                    lease_used[s] += demand;
                }
            }
            let (path, payment, hops, expires_at) = (
                adm.path.clone(),
                adm.payment,
                adm.path.edges().len(),
                adm.expires_at,
            );
            debug_assert_eq!(
                expires_at,
                arrivals[(global - base) as usize]
                    .ttl
                    .map(|t| epoch + t as u64)
            );
            self.residual.commit(&path, demand);
            self.admission_lookup
                .insert((s as u32, local_index), self.admissions.len() as u32);
            self.admissions.push(ShardAdmission {
                owner: s as u32,
                local_index,
                request: RequestId(global),
            });
            admitted_global[(global - base) as usize] = true;
            accepted += 1;
            value_admitted += self.requests[global as usize].value;
            revenue += payment;
            if record {
                self.push_event(EngineEvent::Admitted {
                    epoch,
                    request: RequestId(global),
                    hops,
                    payment,
                });
            }
        }
        self.ledger.settle_epoch(&lease_granted, &lease_used);
        if obs.is_enabled() {
            self.record_lease_gauges(&obs);
        }

        // 7. Reconciliation part 2: route cross-shard requests against
        //    the post-epoch global residuals and carry.
        let reconcile_begun = Instant::now();
        let cross_span = obs.span_attr(Phase::ShardCrossRoute, "batch", cross_batch.len() as u64);
        let cross_stop = if cross_batch.is_empty() {
            // The reconciler's epoch was opened in step 2; close it
            // (handing back its own release list so its report and
            // metrics stay truthful) to keep its epoch counter in
            // lockstep.
            let plan = self.reconciler.plan_epoch_in(&[], cross_released, None);
            self.reconciler.commit_epoch(plan, None);
            None
        } else {
            Some(self.reconcile_cross(
                epoch,
                base,
                reconciler_id,
                &cross_batch,
                cross_released,
                &local_to_global[shards],
                owner_req_base[shards],
                &mut accepted,
                &mut value_admitted,
                &mut revenue,
                &mut admitted_global,
            ))
        };
        drop(cross_span);
        self.shard_epoch_us[shards] += reconcile_begun.elapsed().as_micros() as u64;

        // Rejections, stop reason, report.
        if record {
            for (i, &admitted) in admitted_global.iter().enumerate() {
                if !admitted {
                    self.push_event(EngineEvent::Rejected {
                        epoch,
                        request: RequestId(base + i as u32),
                    });
                }
            }
        }
        let stop = derive_stop(arrivals.len(), accepted, &merge, &shard_stops, cross_stop);
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
        self.metrics.record_batch(
            arrivals.len(),
            accepted,
            released,
            value_admitted,
            revenue,
            elapsed,
        );
        obs.epoch_end(epoch);
        // Auction health, strictly after the epoch bracket: the sampled
        // regret oracle over the frozen step-3 context, then the
        // SLO / starvation / storm tick against deployment-wide totals.
        if let Some(ctx) = regret_ctx {
            run_regret_oracle(
                &self.graph,
                &pool,
                &obs,
                &self.config.engine.health,
                ctx,
                value_admitted,
            );
        }
        self.health.epoch_tick(
            &self.config.engine.health,
            &obs,
            epoch,
            elapsed.as_micros() as u64,
            self.metrics.evicted,
        );
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

    /// Record per-shard lease-ledger gauges (grant/use ratios) plus the
    /// deployment-wide aggregate. Only called when the recorder is
    /// enabled; strictly out-of-band (reads the settled ledger, mutates
    /// nothing the deterministic pipeline sees).
    fn record_lease_gauges(&self, obs: &ufp_obs::Recorder) {
        let shards = self.shards();
        let (mut granted, mut used) = (0.0f64, 0.0f64);
        for s in 0..shards {
            granted += self.ledger.granted(s);
            used += self.ledger.used(s);
            obs.gauge_set(&self.lease_gauge_names[s], self.ledger.utilization(s));
        }
        obs.gauge_set("shard.lease_granted_total", granted);
        obs.gauge_set("shard.lease_used_total", used);
        obs.gauge_set(
            "shard.lease_utilization",
            if granted > 0.0 { used / granted } else { 0.0 },
        );
    }

    /// Convenience: submit permanent (no-TTL) requests.
    pub fn submit_requests(&mut self, requests: &[Request]) -> EpochReport {
        let arrivals: Vec<Arrival> = requests.iter().copied().map(Arrival::permanent).collect();
        self.submit_batch(&arrivals)
    }

    // ------------------------------------------------------------------
    // Dynamic topology: mutation + deterministic repair.
    // ------------------------------------------------------------------

    /// Apply a batch of topology mutations between epochs across the
    /// whole deployment — the sharded analogue of
    /// [`Engine::apply_topology`], bit-identical to it on the same
    /// stream (the zero-cross contract extends through mutations).
    ///
    /// The orchestrator owns the decision: it applies the events to its
    /// own overlay, scans the **global** admissions for violated edges
    /// (several shards share a boundary edge, so a per-shard scan would
    /// under-account the load), selects evictions in (admission-epoch,
    /// global-id) order, then *directs* every owned engine — which
    /// mirrors the identical overlay — to evict exactly its share
    /// ([`Engine::apply_topology_directed`]). Refunds, `Evicted` events
    /// (global ids, every event level), re-admission queueing, and the
    /// global residual rebuild over the effective capacities all happen
    /// here, in the same order a single engine would produce them.
    ///
    /// Boundary leases need no explicit invalidation: they are cut
    /// fresh each epoch from the global residual tracker, which this
    /// pass rebuilds over the post-mutation effective capacities — so
    /// the next epoch's grants are automatically regrants against the
    /// new residuals (Σ leases ≤ `lease_fraction` × residual per edge).
    pub fn apply_topology(
        &mut self,
        events: &[TopologyEvent],
    ) -> Result<TopologyReport, TopologyError> {
        let obs = self.config.engine.obs.clone();
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

        // Global eviction decision against the post-mutation overlay.
        let evict = self.select_evictions();
        // Authoritative per-eviction details, captured before the owner
        // engines mutate their ledgers.
        let details: Vec<(RequestId, f64, Option<u64>)> = evict
            .iter()
            .map(|&g| {
                let sa = self.admissions[g];
                let adm = &self.engine(sa.owner).admissions()[sa.local_index as usize];
                (sa.request, adm.payment, adm.expires_at)
            })
            .collect();

        // Direct every engine: same events everywhere (the overlays stay
        // mirrored), plus its own slice of the global eviction list
        // (order within a slice follows the global order). Re-admission
        // queueing stays up here — the owner engines' local queues would
        // re-submit through the wrong entry point.
        let shards = self.shards();
        let mut per_owner: Vec<Vec<usize>> = vec![Vec::new(); shards + 1];
        for &g in &evict {
            let sa = self.admissions[g];
            per_owner[sa.owner as usize].push(sa.local_index as usize);
        }
        for (owner, local) in per_owner.iter().enumerate() {
            let engine = if owner == shards {
                &mut self.reconciler
            } else {
                &mut self.engines[owner]
            };
            engine
                .apply_topology_directed(events, local, false)
                .expect("orchestrator-validated events apply to every mirrored engine");
        }

        // Refunds + global Evicted events, in global eviction order —
        // the order (and float accumulation) a single engine produces.
        let epoch = self.epoch;
        let mut refunded = 0.0f64;
        {
            let _span = obs.span_attr(Phase::RepairEvict, "evictions", evict.len() as u64);
            for &(request, refund, _) in &details {
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

        // Re-admission queue (original absolute expiry preserved; flows
        // whose TTL lapses by the next epoch are not re-queued).
        let mut readmissions = 0usize;
        {
            let _span = obs.span(Phase::RepairReadmit);
            let next_epoch = epoch + 1;
            for &(request, _, expires_at) in &details {
                let request = self.requests[request.index()];
                let arrival = match expires_at {
                    None => Some(Arrival::permanent(request)),
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

        // Rebuild the global residual tracker from scratch over the
        // effective capacities, committing every surviving admission in
        // global admission order — the identical summation a single
        // engine's rebuild performs.
        let mut residual = ResidualCaps::with_caps(self.topology.effective_capacities())
            .expect("validated topology capacities are finite and non-negative");
        for sa in &self.admissions {
            let adm = &self.engine(sa.owner).admissions()[sa.local_index as usize];
            if !adm.released {
                residual.commit(&adm.path, self.requests[sa.request.index()].demand);
            }
        }
        self.residual = residual;

        obs.gauge_set("engine.links_down", self.topology.links_down() as f64);
        Ok(TopologyReport {
            from_version,
            to_version: self.topology.version(),
            evicted: evict.len(),
            refunded,
            readmissions,
            links_down: self.topology.links_down(),
        })
    }

    /// Deterministic global eviction scan — the sharded mirror of the
    /// single engine's: loads summed over the global admissions in
    /// admission order, candidates visited in (admission-epoch,
    /// global-id) order, evicted while touching a still-violating edge.
    fn select_evictions(&self) -> Vec<usize> {
        let m = self.graph.num_edges();
        let mut loads = vec![0.0f64; m];
        for sa in &self.admissions {
            let adm = &self.engine(sa.owner).admissions()[sa.local_index as usize];
            if adm.released {
                continue;
            }
            let d = self.requests[sa.request.index()].demand;
            for &e in adm.path.edges() {
                loads[e.index()] += d;
            }
        }
        let over = |load: f64, cap: f64| load > cap * (1.0 + 1e-9) + 1e-9;
        let mut violating: Vec<bool> = (0..m)
            .map(|e| over(loads[e], self.topology.effective_capacity(EdgeId(e as u32))))
            .collect();
        let mut remaining = violating.iter().filter(|&&v| v).count();
        if remaining == 0 {
            return Vec::new();
        }
        let active = |i: usize| {
            let sa = self.admissions[i];
            !self.engine(sa.owner).admissions()[sa.local_index as usize].released
        };
        let mut order: Vec<usize> = (0..self.admissions.len()).filter(|&i| active(i)).collect();
        order.sort_by_key(|&i| {
            let sa = self.admissions[i];
            let adm = &self.engine(sa.owner).admissions()[sa.local_index as usize];
            (adm.epoch, sa.request.0)
        });
        let mut evict = Vec::new();
        for i in order {
            if remaining == 0 {
                break;
            }
            let sa = self.admissions[i];
            let adm = &self.engine(sa.owner).admissions()[sa.local_index as usize];
            if !adm.path.edges().iter().any(|e| violating[e.index()]) {
                continue;
            }
            let d = self.requests[sa.request.index()].demand;
            for &e in adm.path.edges() {
                loads[e.index()] -= d;
                let was = violating[e.index()];
                let now = over(loads[e.index()], self.topology.effective_capacity(e));
                violating[e.index()] = now;
                if was && !now {
                    remaining -= 1;
                }
            }
            evict.push(i);
        }
        evict
    }

    /// Drain the re-admission queue (see [`Engine::drain_readmissions`]).
    pub fn drain_readmissions(&mut self) -> Vec<Arrival> {
        self.health.note_drain();
        std::mem::take(&mut self.readmit_queue)
    }

    /// The dynamic-topology overlay (orchestrator authority; every
    /// owned engine mirrors it).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Audit the global active admissions against the **effective**
    /// (topology-aware) capacities (see
    /// [`Engine::verify_active_feasibility`]).
    pub fn verify_active_feasibility(&self) -> Result<(), String> {
        let m = self.graph.num_edges();
        let mut loads = vec![0.0f64; m];
        for sa in &self.admissions {
            let adm = &self.engine(sa.owner).admissions()[sa.local_index as usize];
            if adm.released {
                continue;
            }
            let d = self.requests[sa.request.index()].demand;
            for &e in adm.path.edges() {
                loads[e.index()] += d;
            }
        }
        for (e, &load) in loads.iter().enumerate() {
            let cap = self.topology.effective_capacity(EdgeId(e as u32));
            if load > cap * (1.0 + 1e-9) + 1e-9 {
                return Err(format!(
                    "edge {e} overloaded: load {load} > effective capacity {cap}"
                ));
            }
        }
        Ok(())
    }

    /// Mirror this epoch's per-engine TTL releases into the global
    /// residual tracker, in the deterministic order a single engine
    /// would release them (ascending expiry epoch, then global
    /// admission order), emitting `Released` events along the way.
    fn mirror_releases(&mut self, epoch: u64, released_local: &[Vec<usize>]) -> usize {
        let mut rel: Vec<(u64, u32)> = Vec::new();
        for (owner, idxs) in released_local.iter().enumerate() {
            let engine = self.engine(owner as u32);
            for &idx in idxs {
                let global = self.admission_lookup[&(owner as u32, idx as u32)];
                let expires = engine.admissions()[idx]
                    .expires_at
                    .expect("released admissions carry an expiry epoch");
                rel.push((expires, global));
            }
        }
        rel.sort_unstable();
        let record = self.config.engine.events == EventLevel::Request;
        let details: Vec<(Path, f64, RequestId)> = rel
            .iter()
            .map(|&(_, g)| {
                let sa = self.admissions[g as usize];
                let engine = self.engine(sa.owner);
                let adm = &engine.admissions()[sa.local_index as usize];
                let demand = engine.requests()[adm.request.index()].demand;
                (adm.path.clone(), demand, sa.request)
            })
            .collect();
        for (path, demand, request) in details {
            self.residual.release(&path, demand);
            if record {
                self.push_event(EngineEvent::Released { epoch, request });
            }
        }
        rel.len()
    }

    /// Plan + commit the reconciler's epoch over the cross-shard batch
    /// and mirror its admissions into the global state.
    #[allow(clippy::too_many_arguments)]
    fn reconcile_cross(
        &mut self,
        epoch: u64,
        base: u32,
        reconciler_id: u32,
        cross_batch: &[Arrival],
        cross_released: Vec<usize>,
        cross_local_to_global: &[u32],
        cross_req_base: u32,
        accepted: &mut usize,
        value_admitted: &mut f64,
        revenue: &mut f64,
        admitted_global: &mut [bool],
    ) -> StopReason {
        let capacities = self.residual.residuals();
        let usable = self.global_usable();
        let carry_in = self.carry.clone();
        let ov = EpochOverride {
            capacities: &capacities,
            usable: &usable,
            routable: None,
            carry: &carry_in,
        };
        let plan = self
            .reconciler
            .plan_epoch_in(cross_batch, cross_released, Some(&ov));
        let stop = plan.outcome().run.trace.stop_reason;
        // Fold the reconciler's bumps into the global carry, in its
        // (deterministic, sequential) selection order.
        let trace = plan.trace().expect("override plans are traced");
        for i in 0..trace.num_steps() {
            let step = trace.step(i);
            for (&e, &bump) in step.path.edges().iter().zip(step.bumps) {
                self.carry[e.index()] += bump;
            }
        }
        let kept = plan.num_steps();
        let adm_base = self.reconciler.admissions().len() as u32;
        self.reconciler.commit_epoch(plan, None);
        let record = self.config.engine.events == EventLevel::Request;
        for j in 0..kept {
            let local_index = adm_base + j as u32;
            let adm = &self.reconciler.admissions()[local_index as usize];
            let batch_pos = (adm.request.0 - cross_req_base) as usize;
            let global = cross_local_to_global[batch_pos];
            let demand = self.requests[global as usize].demand;
            let (path, payment, hops) = (adm.path.clone(), adm.payment, adm.path.edges().len());
            self.residual.commit(&path, demand);
            self.admission_lookup
                .insert((reconciler_id, local_index), self.admissions.len() as u32);
            self.admissions.push(ShardAdmission {
                owner: reconciler_id,
                local_index,
                request: RequestId(global),
            });
            admitted_global[(global - base) as usize] = true;
            *accepted += 1;
            *value_admitted += self.requests[global as usize].value;
            *revenue += payment;
            if record {
                self.push_event(EngineEvent::Admitted {
                    epoch,
                    request: RequestId(global),
                    hops,
                    payment,
                });
            }
        }
        stop
    }

    // ------------------------------------------------------------------
    // Read-out (mirrors the single engine's surface).
    // ------------------------------------------------------------------

    /// The base network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared handle to the base network.
    pub fn shared_graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Running aggregate metrics (same shape as a single engine's).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The merged event log accumulated so far.
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// Drain the merged event log (see [`Engine::drain_events`]).
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.events)
    }

    /// Events discarded by the retention cap.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// The global residual-capacity tracker.
    pub fn residual(&self) -> &ResidualCaps {
        &self.residual
    }

    /// The lease ledger.
    pub fn ledger(&self) -> &LeaseLedger {
        &self.ledger
    }

    /// The global request registry (ids match a single engine fed the
    /// same stream).
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of global admissions ever made.
    pub fn num_admissions(&self) -> usize {
        self.admissions.len()
    }

    /// The global admission ledger (owner + local index per entry).
    pub fn shard_admissions(&self) -> &[ShardAdmission] {
        &self.admissions
    }

    /// Materialize global admission `i` in the single engine's
    /// [`Admission`] shape (global request id; live released flag).
    pub fn admission(&self, i: usize) -> Admission {
        let sa = self.admissions[i];
        let adm = &self.engine(sa.owner).admissions()[sa.local_index as usize];
        Admission {
            request: sa.request,
            path: adm.path.clone(),
            epoch: adm.epoch,
            expires_at: adm.expires_at,
            payment: adm.payment,
            released: adm.released,
            evicted: adm.evicted,
        }
    }

    /// All global admissions, materialized (see
    /// [`ShardedEngine::admission`]).
    pub fn admissions(&self) -> Vec<Admission> {
        (0..self.admissions.len())
            .map(|i| self.admission(i))
            .collect()
    }

    /// The whole submitted history as one instance over the base graph.
    pub fn instance(&self) -> ufp_core::UfpInstance {
        ufp_core::UfpInstance::from_shared(Arc::clone(&self.graph), self.requests.clone())
    }

    /// Every admission ever made, as a solution over
    /// [`ShardedEngine::instance`].
    pub fn cumulative_solution(&self) -> ufp_core::UfpSolution {
        ufp_core::UfpSolution {
            routed: self
                .admissions
                .iter()
                .map(|sa| {
                    let adm = &self.engine(sa.owner).admissions()[sa.local_index as usize];
                    (sa.request, adm.path.clone())
                })
                .collect(),
        }
    }

    /// Currently-held admissions, as a solution over
    /// [`ShardedEngine::instance`]. Always feasible against the
    /// effective (topology-aware) capacities — and against the base
    /// capacities whenever the overlay is pristine.
    pub fn active_solution(&self) -> ufp_core::UfpSolution {
        ufp_core::UfpSolution {
            routed: self
                .admissions
                .iter()
                .filter_map(|sa| {
                    let adm = &self.engine(sa.owner).admissions()[sa.local_index as usize];
                    (!adm.released).then(|| (sa.request, adm.path.clone()))
                })
                .collect(),
        }
    }

    /// Per-edge utilization histogram over the global loads.
    pub fn utilization_histogram(&self, buckets: usize) -> Vec<usize> {
        self.residual.utilization_histogram(buckets)
    }

    /// Per-shard observability: request/admission counts, cumulative
    /// epoch wall-clock, and lease accounting. The last row is the
    /// reconciler.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let shards = self.shards();
        (0..=shards)
            .map(|s| {
                let engine = self.engine(s as u32);
                let (granted, used) = if s < shards {
                    (self.ledger.granted(s), self.ledger.used(s))
                } else {
                    (0.0, 0.0)
                };
                ShardStats {
                    shard: s,
                    requests: engine.num_requests(),
                    admissions: engine.admissions().len(),
                    epoch_time_us: self.shard_epoch_us[s],
                    lease_granted: granted,
                    lease_used: used,
                    lease_utilization: if s < shards {
                        self.ledger.utilization(s)
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }
}

/// Per-shard lease-utilization gauge names, interned once per
/// [`ShardedEngine`] (construction and snapshot restore) so the
/// per-epoch gauge pass never allocates.
pub(crate) fn lease_gauge_names(shards: usize) -> Vec<String> {
    (0..shards)
        .map(|s| format!("shard.lease_utilization.s{s}"))
        .collect()
}

/// The merge-replay pass: consume shard selection steps in global score
/// order through one global [`DualWeights`], enforcing the global
/// guard. Applies every consumed step's bumps to `carry` (already
/// decayed) in merged order.
///
/// With `build_trace` set, the consumed steps are simultaneously
/// assembled into a global [`EpochResumeTrace`] over the epoch's batch
/// instance (requests id'd by batch position, i.e. `global - base`):
/// each pushed step carries the shard-recorded `ln α` / raw score /
/// path / bumps verbatim, plus the *global* `ln D₁` (the dual sum this
/// merge checks against the guard) and the global running routed value
/// — exactly the record a single engine's traced run would have
/// produced, so pricing passes can checkpoint and resume against it.
#[allow(clippy::too_many_arguments)] // one call site, mirrors the epoch context
fn merge_replay(
    capacities: &[f64],
    usable: &[bool],
    carry_in: &[f64],
    carry: &mut [f64],
    epsilon: f64,
    plans: &[EpochPlan],
    local_to_global: &[Vec<u32>],
    requests: &[Request],
    base: u32,
    build_trace: bool,
) -> MergeOutcome {
    let shards = plans.len();
    let b = capacities
        .iter()
        .zip(usable)
        .filter(|&(_, &u)| u)
        .map(|(&c, _)| c)
        .fold(f64::INFINITY, f64::min);
    let ln_guard = epsilon * (b - 1.0);
    let mut weights = DualWeights::with_context(capacities, usable, carry_in);
    let mut cursors = vec![0usize; shards];
    let mut merged = Vec::new();
    let mut guard_tripped = false;
    let mut global_trace = build_trace.then(EpochResumeTrace::default);
    let mut routed_value = 0.0f64;
    loop {
        // The next candidate per shard is its first unconsumed step;
        // global order is (ln α, raw score, global request id). The raw
        // score is the selection loop's own full-precision argmin key —
        // ln α, its shift-invariant ln round-trip, can collapse two
        // scores one ulp apart onto the same bits, so ties break on the
        // raw key first and only then on the single engine's id rule.
        let mut best: Option<(f64, f64, u32, usize)> = None;
        for s in 0..shards {
            if cursors[s] >= plans[s].num_steps() {
                continue;
            }
            let trace = plans[s].trace().expect("override plans are traced");
            let step = trace.step(cursors[s]);
            let g = local_to_global[s][step.selected.index()];
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
        let trace = plans[s].trace().expect("override plans are traced");
        let step = trace.step(cursors[s]);
        for (&e, &bump) in step.path.edges().iter().zip(step.bumps) {
            weights.bump(e, bump);
            carry[e.index()] += bump;
        }
        if let Some(gt) = global_trace.as_mut() {
            gt.push_step(
                RequestId(g - base),
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
    if merge.guard_tripped {
        return StopReason::Guard;
    }
    if cross_stop == Some(StopReason::Guard) {
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
