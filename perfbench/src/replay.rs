//! The closed-loop replay: one caller hands the deployment epoch `k+1`
//! only after epoch `k`'s report (prices included) has returned.
//!
//! An untraced replay drives `submit_batch`. A traced replay, with the
//! recorder on, drives a single engine through `open_epoch` /
//! `plan_epoch_in` / `commit_epoch` (documented as equivalent to
//! `submit_batch`) and a sharded one through `submit_batch`, times every
//! call into a layer's public function from outside, and restores every
//! snapshot it takes. Both check every epoch's outputs outside the timed
//! window, and both replay the trace in passes, a fresh deployment per
//! pass, until the budget is spent.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ufp_engine::{Arrival, EngineEvent};
use ufp_obs::Recorder;

use crate::check::{compare, Digest, EpochRecord, Reference};
use crate::host;
use crate::workload::{deploy, stop_code, Deployment, Inputs, Spec};

/// When a replay stops.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Whole passes of the trace until the replay wall reaches this many
    /// seconds, so that every run weighs the trace's epochs alike.
    Seconds(f64),
    /// Exactly this many epochs.
    Epochs(usize),
}

/// Time spent in each public call a traced replay makes, summed.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub open: Duration,
    pub plan: Duration,
    pub commit: Duration,
    pub submit: Duration,
    pub apply_topology: Duration,
    pub drain: Duration,
    pub snapshot: Duration,
    pub restore: Duration,
    pub snapshots: usize,
    pub snapshot_bytes: usize,
    pub plan_steps: usize,
    pub evictions: usize,
    pub readmissions: usize,
    /// Process CPU time inside the epoch spans.
    pub cpu: Duration,
}

impl Layers {
    /// Total time of the timed calls that lie inside the epoch spans.
    pub fn timed_calls(&self) -> Duration {
        self.open
            + self.plan
            + self.commit
            + self.submit
            + self.apply_topology
            + self.drain
            + self.snapshot
    }
}

pub struct Replay {
    pub epochs: usize,
    /// Arrivals decided (admitted and priced, or rejected).
    pub decided: usize,
    pub admitted: usize,
    /// Σ epoch spans: hand-off of the topology batch and arrivals until
    /// the report returns, plus any snapshot the caller then takes.
    pub wall: Duration,
    /// Per-epoch decision latency (hand-off until the report returns).
    pub latencies: Vec<Duration>,
    /// Indices of the epochs that failed the reference check or an
    /// invariant.
    pub failed: Vec<usize>,
    pub records: Vec<EpochRecord>,
    pub layers: Layers,
}

/// Per-pass checking state.
struct PassCheck {
    admissions_seen: usize,
    /// Payment of every admission of this pass, by global request id.
    payment_of: HashMap<u32, f64>,
    /// Σ payments of the evicted admissions, in eviction order.
    evicted_payments: f64,
}

impl PassCheck {
    fn new() -> Self {
        PassCheck {
            admissions_seen: 0,
            payment_of: HashMap::new(),
            evicted_payments: 0.0,
        }
    }

    /// Collect the epoch's record and run the in-run invariants: every
    /// payment in `[0, bid]`, every refund equal to the evicted
    /// admission's payment, the deployment's Σ refunds bit-equal to the
    /// Σ of those payments, and the active admissions feasible against
    /// the effective capacities.
    fn observe(
        &mut self,
        dep: &mut Deployment,
        epoch: usize,
        report: &ufp_engine::EpochReport,
        decided: usize,
        errors: &mut Vec<String>,
    ) -> EpochRecord {
        let mut digest = Digest::default();
        let mut payments = Vec::with_capacity(report.accepted);
        let end = dep.num_admissions();
        for i in self.admissions_seen..end {
            let a = dep.admission(i);
            digest.write_u32(a.request.0);
            digest.write_u32(a.path.edges().len() as u32);
            for e in a.path.edges() {
                digest.write_u32(e.0);
            }
            let bid = dep.requests()[a.request.index()].value;
            if !(0.0..=bid).contains(&a.payment) {
                errors.push(format!(
                    "epoch {epoch}: payment {} outside [0, bid {bid}]",
                    a.payment
                ));
            }
            self.payment_of.insert(a.request.0, a.payment);
            payments.push(a.payment);
        }
        self.admissions_seen = end;

        let mut evictions = Digest::default();
        let mut evicted = 0;
        for ev in dep.drain_events() {
            if let EngineEvent::Evicted {
                request, refund, ..
            } = ev
            {
                evicted += 1;
                evictions.write_u32(request.0);
                let paid = self.payment_of.get(&request.0).copied();
                if paid.map(f64::to_bits) != Some(refund.to_bits()) {
                    errors.push(format!(
                        "epoch {epoch}: refund {refund} to request {} differs from its payment {paid:?}",
                        request.0
                    ));
                }
                self.evicted_payments += paid.unwrap_or(f64::NAN);
            }
        }
        let refunded = dep.refunded();
        if refunded.to_bits() != self.evicted_payments.to_bits() {
            errors.push(format!(
                "epoch {epoch}: Σ refunds {refunded} != Σ evicted payments {}",
                self.evicted_payments
            ));
        }
        if let Err(e) = dep.verify_active_feasibility() {
            errors.push(format!("epoch {epoch}: feasibility audit failed: {e}"));
        }
        EpochRecord {
            epoch,
            stop: stop_code(report.stop),
            arrivals: decided,
            accepted: report.accepted,
            admissions: digest.finish(),
            evicted,
            evictions: evictions.finish(),
            payments,
        }
    }
}

/// Run one replay of `inputs` under `budget`, calling `between_epochs`
/// after each epoch's checks, outside the timed window.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    spec: &Spec,
    inputs: &Inputs,
    threads: usize,
    obs: &Recorder,
    traced: bool,
    budget: Budget,
    reference: Option<&Reference>,
    between_epochs: &mut dyn FnMut(),
) -> Replay {
    let mut out = Replay {
        epochs: 0,
        decided: 0,
        admitted: 0,
        wall: Duration::ZERO,
        latencies: Vec::new(),
        failed: Vec::new(),
        records: Vec::new(),
        layers: Layers::default(),
    };
    let mut reported_errors = 0usize;
    'passes: loop {
        let mut dep = deploy(spec, inputs, threads, obs);
        let mut pass = PassCheck::new();
        for (t, scheduled) in inputs.arrivals.iter().enumerate() {
            let done = match budget {
                Budget::Seconds(s) => t == 0 && out.wall.as_secs_f64() >= s,
                Budget::Epochs(n) => out.epochs >= n,
            };
            if done {
                break 'passes;
            }
            let events = inputs.failures.get(t).map_or(&[][..], Vec::as_slice);
            let epoch = run_epoch(
                spec,
                &mut dep,
                t,
                events,
                scheduled,
                traced,
                &mut out.layers,
            );
            let decided = epoch.report.arrivals;
            out.epochs += 1;
            out.decided += decided;
            out.admitted += epoch.report.accepted;
            out.wall += epoch.span;
            out.latencies.push(epoch.latency);

            let mut errors = Vec::new();
            let record = pass.observe(&mut dep, t + 1, &epoch.report, decided, &mut errors);
            if let Some(want) = reference.and_then(|r| r.epochs.get(t)) {
                if let Err(e) = compare(want, &record) {
                    errors.push(e);
                }
            }
            if let (true, Some(bytes)) = (traced, &epoch.snapshot) {
                if let Err(e) = restore_round_trip(inputs, &dep, bytes, &mut out.layers) {
                    errors.push(format!("epoch {}: {e}", t + 1));
                }
            }
            if !errors.is_empty() {
                out.failed.push(out.epochs - 1);
                for e in errors {
                    if reported_errors < 10 {
                        eprintln!("perfbench: check failed: {e}");
                    }
                    reported_errors += 1;
                }
            }
            out.records.push(record);
            between_epochs();
        }
    }
    out
}

struct EpochRun {
    report: ufp_engine::EpochReport,
    /// Hand-off of the topology batch and arrivals until the report.
    latency: Duration,
    /// The latency plus the snapshot the caller then takes, if one is due.
    span: Duration,
    snapshot: Option<Vec<u8>>,
}

/// One epoch: the topology batch, readmissions merged ahead of the
/// scheduled arrivals, the decision, and any due snapshot.
fn run_epoch(
    spec: &Spec,
    dep: &mut Deployment,
    t: usize,
    events: &[ufp_engine::TopologyEvent],
    scheduled: &[Arrival],
    traced: bool,
    layers: &mut Layers,
) -> EpochRun {
    let cpu_start = traced.then(host::process_cpu);
    let started = Instant::now();
    if !events.is_empty() {
        let call = Instant::now();
        let repair = dep
            .apply_topology(events)
            .expect("generated failure traces apply cleanly");
        layers.apply_topology += call.elapsed();
        layers.evictions += repair.evicted;
        layers.readmissions += repair.readmissions;
    }
    let call = Instant::now();
    let readmitted = dep.drain_readmissions();
    layers.drain += call.elapsed();
    let merged: Vec<Arrival>;
    let batch = if readmitted.is_empty() {
        scheduled
    } else {
        merged = readmitted
            .into_iter()
            .chain(scheduled.iter().copied())
            .collect();
        &merged
    };
    let report = match dep {
        Deployment::Single(engine) if traced => {
            let obs = engine.config().obs.clone();
            obs.epoch_begin(engine.epoch() + 1);
            let call = Instant::now();
            let released = engine.open_epoch(batch.len());
            layers.open += call.elapsed();
            let call = Instant::now();
            let plan = engine.plan_epoch_in(batch, released, None);
            layers.plan += call.elapsed();
            layers.plan_steps += plan.num_steps();
            let call = Instant::now();
            let report = engine.commit_epoch(plan, None);
            layers.commit += call.elapsed();
            obs.epoch_end(report.epoch);
            report
        }
        _ => {
            let call = Instant::now();
            let report = dep.submit_batch(batch);
            layers.submit += call.elapsed();
            report
        }
    };
    let latency = started.elapsed();
    let snapshot = (t + 1).is_multiple_of(spec.snapshot_every).then(|| {
        let call = Instant::now();
        let bytes = dep.snapshot_bytes();
        layers.snapshot += call.elapsed();
        layers.snapshots += 1;
        layers.snapshot_bytes += bytes.len();
        bytes
    });
    let span = started.elapsed();
    if let Some(c) = cpu_start {
        layers.cpu += host::process_cpu().saturating_sub(c);
    }
    EpochRun {
        report,
        latency,
        span,
        snapshot,
    }
}

/// Restore a deployment from the epoch's snapshot (timed) and require it
/// to re-encode to the same bytes.
fn restore_round_trip(
    inputs: &Inputs,
    dep: &Deployment,
    bytes: &[u8],
    layers: &mut Layers,
) -> Result<(), String> {
    let call = Instant::now();
    let restored = dep.restore_from_bytes(bytes, inputs)?;
    layers.restore += call.elapsed();
    if restored.snapshot_bytes() != bytes {
        return Err("restored deployment re-encodes to different bytes".to_string());
    }
    Ok(())
}
