//! Algorithm 1 — `Bounded-UFP(ε)`: the paper's monotone deterministic
//! primal–dual algorithm for the `Ω(ln m / ε²)`-bounded unsplittable flow
//! problem, with approximation ratio approaching `e/(e−1)` (Theorem 3.1).
//!
//! Faithful to the paper's pseudocode:
//!
//! 1. `y_e ← 1/c_e` for every edge.
//! 2. While requests remain and `Σ c_e y_e ≤ e^{ε(B−1)}`:
//!    a. for every unrouted request `r`, find the shortest `s_r → t_r`
//!    path `p_r` under weights `y`;
//!    b. select `r̂` minimizing the *normalized length*
//!    `(d_r / v_r)·|p_r|` (ties broken by request id — any fixed rule
//!    preserves monotonicity);
//!    c. multiply `y_e ← y_e · e^{εB d_{r̂} / c_e}` along `p_{r̂}`;
//!    d. route `r̂` on `p_{r̂}`.
//!
//! Production details beyond the pseudocode: log-space weights so small
//! ε cannot overflow (see [`crate::weights`]), the incremental
//! route-class selector in place of the per-iteration fan-out (see
//! [`crate::selection`] and `crates/core/README.md`), and the Claim 3.6
//! dual certificate recorded per iteration so every run carries a
//! certified bound on its own approximation ratio.

use std::sync::Arc;

use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::ids::NodeId;
use ufp_netgraph::path::Path;
use ufp_obs::{Phase, Recorder};

use crate::critical::Shadow;
use crate::instance::UfpInstance;
use crate::potentials::Potentials;
use crate::request::RequestId;
use crate::selection::{Argmin, IncrementalSelector, SelectInputs, SelectorLog};
use crate::solution::UfpSolution;
use crate::trace::{Certificate, IterationRecord, RunTrace, StopReason};
use crate::weights::DualWeights;

/// Configuration for [`bounded_ufp`].
#[derive(Clone, Debug)]
pub struct BoundedUfpConfig {
    /// Accuracy parameter ε ∈ (0, 1]. Theorem 3.1 calls the algorithm
    /// with `ε/6` to obtain a `(1+ε)·e/(e−1)` guarantee when
    /// `B ≥ ln(m)/ε²`.
    pub epsilon: f64,
    /// Observability recorder (off by default). Strictly out-of-band:
    /// it sees guard slack, dual-weight growth, and selection phases,
    /// and feeds nothing back — runs are bit-identical with it on or
    /// off.
    pub obs: Recorder,
    /// Run the paper-literal fan-out loop instead of the incremental
    /// selector (see [`BoundedUfpConfig::fan_out_reference`]).
    fan_out: bool,
}

impl Default for BoundedUfpConfig {
    fn default() -> Self {
        BoundedUfpConfig {
            epsilon: 0.1,
            obs: Recorder::off(),
            fan_out: false,
        }
    }
}

impl BoundedUfpConfig {
    /// Paper-faithful configuration with the given ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must lie in (0, 1], got {epsilon}"
        );
        BoundedUfpConfig {
            epsilon,
            ..Default::default()
        }
    }

    /// Same configuration with an observability recorder attached.
    pub fn with_obs(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Same configuration driving the paper-literal loop: one
    /// shortest-path query per remaining request, every iteration. Its
    /// outputs are bit-identical to the incremental selector's; it
    /// exists only as the reference the equivalence tests compare
    /// against.
    #[doc(hidden)]
    pub fn fan_out_reference(mut self) -> Self {
        self.fan_out = true;
        self
    }
}

/// Result of a [`bounded_ufp`] run.
#[derive(Clone, Debug)]
pub struct UfpRunResult {
    /// The allocation `W`.
    pub solution: UfpSolution,
    /// Analysis trace (α, D₁, P per iteration) and stop reason.
    pub trace: RunTrace,
}

impl UfpRunResult {
    /// Certified upper bound on OPT via Claim 3.6, if applicable.
    pub fn dual_upper_bound(&self) -> Option<f64> {
        self.trace.dual_upper_bound()
    }

    /// Certified upper bound on OPT, tightened with the trivial bound
    /// `OPT ≤ Σ_r v_r` (which is what makes exhausted runs — the paper's
    /// "if L = ∅ the output is optimal" case — certify ratio 1).
    pub fn tight_upper_bound(&self, instance: &UfpInstance) -> Option<f64> {
        self.dual_upper_bound()
            .map(|d| d.min(instance.total_value()))
    }

    /// Certified approximation ratio `bound / value` (≥ 1 up to fp noise).
    pub fn certified_ratio(&self, instance: &UfpInstance) -> Option<f64> {
        let v = self.solution.value(instance);
        if v <= 0.0 {
            return None;
        }
        self.tight_upper_bound(instance).map(|d| d / v)
    }
}

/// Residual-epoch inputs that let `ufp-engine` reuse Algorithm 1
/// incrementally across streaming batches. All three slices are indexed
/// by edge id of the instance graph.
///
/// With a trivial context (full capacities, everything usable, zero
/// carry) the epoch run produces the identical allocation — same
/// selection order, same paths, bit-identical trace records — as the
/// one-shot [`bounded_ufp`]; the engine/offline equivalence tests rely
/// on that. The only difference: epoch runs never carry a Claim 3.6
/// certificate (`dual_upper_bound()` is `None`), because the claim's
/// premise does not survive masked edges or carried weights.
///
/// Path search never checks an edge's remaining capacity against the
/// demand: the guard alone keeps every usable edge at least `c_e/B ≥ 1`
/// free before each selection (`crates/core/README.md`, "Feasibility
/// without a residual gate").
#[derive(Clone, Copy, Debug)]
pub struct EpochContext<'a> {
    /// Effective (residual) capacity per edge; replaces `c_e` in the
    /// weight initialization, the guard bound `B`, and the line-10
    /// exponent.
    pub capacities: &'a [f64],
    /// Edges admissible this epoch. Unusable (saturated) edges are
    /// excluded from path search, from `B`, and from the guard sum `D₁`.
    pub usable: &'a [bool],
    /// Carried ln-space dual exponents from earlier epochs:
    /// `y_e` starts at `e^{carry_e}/c_e` instead of `1/c_e`, preserving
    /// congestion memory across batches.
    pub carry: &'a [f64],
    /// Edges this run may *route over*, on top of `usable` (`None` = all
    /// usable edges, the pre-sharding behavior). A sharded engine hands
    /// every shard the **global** `capacities`/`usable`/`carry` — so the
    /// bound `B`, the guard sum `D₁`, and the line-10 exponents are
    /// bit-identical to a single global engine's — while restricting
    /// path search to the shard's own territory through this mask.
    /// Routable-but-unusable edges stay excluded; usable-but-unroutable
    /// edges still count toward `B` and `D₁` but never appear on paths.
    pub routable: Option<&'a [bool]>,
}

/// Result of a [`bounded_ufp_epoch`] run: the ordinary run result plus
/// the carried-forward dual exponents (input carry + this epoch's
/// line-10 bumps).
#[derive(Clone, Debug)]
pub struct EpochOutcome {
    /// Allocation and trace, exactly as from [`bounded_ufp`].
    pub run: UfpRunResult,
    /// `carry_in + Σ bumps` per edge — hand this to the next epoch.
    /// Empty for context-free (one-shot) runs, which have no next epoch;
    /// tracking it there would tax every `critical_value` probe.
    pub carry: Vec<f64>,
}

/// Run Algorithm 1. The instance must be normalized (`d_r ∈ (0,1]`).
pub fn bounded_ufp(instance: &UfpInstance, config: &BoundedUfpConfig) -> UfpRunResult {
    bounded_ufp_epoch(instance, config, None).run
}

/// One recorded selection step of an epoch run: everything needed to
/// re-apply the step's state mutations *without* re-running its
/// shortest-path queries. The bump exponents are stored verbatim so the
/// replay is bit-identical to the original arithmetic sequence.
#[derive(Clone, Debug)]
pub(crate) struct ResumeStep {
    path: Path,
    /// Line-10 exponent per path edge, in `path.edges()` order.
    bumps: Vec<f64>,
    /// Raw (materialized-scale) argmin score `(d/v)·|p|` at selection
    /// time — the exact `f64` the selection loop compared, before the
    /// `ln`+shift round-trip that produces `record.ln_alpha`. Kept so
    /// [`EpochResumeTrace::merge`] can break `ln α` ties by the loop's
    /// own key.
    raw_score: f64,
    record: IterationRecord,
}

/// Per-step checkpoint trace of an epoch run, produced by
/// [`bounded_ufp_epoch_traced`]. From it, [`EpochResumeTrace::checkpoint`]
/// reconstructs the run's exact state after any step prefix in
/// `O(prefix · path length)` arithmetic on top of building the initial
/// state (`O(requests + edges)`) — no shortest-path work — and
/// [`bounded_ufp_epoch_resume`] continues the run from there.
///
/// The point (Lemma 3.4's monotonicity made operational): when one
/// agent's declared value is *lowered*, the selection sequence is
/// unchanged up to the step that originally selected that agent — its
/// score `(d/v)·|p|` only rises, and every earlier argmin already beat
/// it. Pricing a winner therefore only re-runs the *suffix* from that
/// step: [`crate::critical_value_exact`] resumes it once, with the
/// winner masked out, and reads the exact threshold off that run.
///
/// A trace recorded by the incremental selector also keeps a compact
/// log of the selector's route-class answers, from which each pricing
/// pass starts with the shortest paths the recorded run already held
/// (Invariant 3 in `crates/core/README.md`). Recorded and merged traces
/// also share the run's distance-to-target bounds with every pricing
/// pass, which prune their lazy class queries (Invariant 4).
#[derive(Clone, Debug, Default)]
pub struct EpochResumeTrace {
    steps: Vec<ResumeStep>,
    log: SelectorLog,
    /// Bounds built at the weights the traced run (or merge) started from.
    potentials: Option<Arc<Potentials>>,
}

/// Result of [`EpochResumeTrace::merge`]: the one run the merged steps
/// make up over the epoch's batch.
#[derive(Clone, Debug)]
pub struct MergedEpoch {
    /// Routes (batch positions), iteration records with the global
    /// `ln D₁` and running value, the carry, and the stop reason a
    /// single run would report where the merge ended: `Exhausted` when
    /// every request was merged, else `Guard` when the dual mass is over
    /// the guard, else `NoPath`.
    pub outcome: EpochOutcome,
    /// The merged steps as one trace over the batch. It has no selector
    /// log, so its pricing passes start cold; payments are the same bits
    /// either way.
    pub trace: EpochResumeTrace,
    /// `(part, step)` of every merged step, in merged order.
    pub order: Vec<(usize, usize)>,
    /// The guard stopped the merge with recorded steps left over.
    pub truncated: bool,
}

impl EpochResumeTrace {
    /// Number of recorded selection steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Bytes the trace holds on the heap: the recorded steps, the
    /// selector log, and the distance-to-target bounds built so far
    /// (lengths, not allocator capacities).
    pub fn heap_bytes(&self) -> usize {
        let steps: usize = self
            .steps
            .iter()
            .map(|s| {
                std::mem::size_of::<ResumeStep>()
                    + std::mem::size_of_val(s.path.nodes())
                    + std::mem::size_of_val(s.path.edges())
                    + std::mem::size_of_val(&s.bumps[..])
            })
            .sum();
        steps + self.log.heap_bytes() + self.potentials.as_ref().map_or(0, |p| p.heap_bytes())
    }

    /// The request step `i` selected (panics past the end of the trace).
    pub fn selected(&self, i: usize) -> RequestId {
        self.steps[i].record.selected
    }

    /// Merge recorded runs over disjoint sub-batches of `instance` (the
    /// epoch's batch) into the one run a single traced run over the
    /// whole batch would have recorded — the reconciliation a sharded
    /// deployment runs after planning its shards in parallel.
    ///
    /// Steps are consumed in the selection loop's own argmin order:
    /// `ln α` (shift-invariant, so comparable across runs), then the raw
    /// pre-`ln` score (the full-precision key that `ln` rounding can
    /// collapse; it is in each run's materialization scale, so it orders
    /// steps exactly while the parts' weight re-centerings agree), then
    /// batch position, the single run's id rule. Before each step the
    /// guard is checked as the loop checks it; once the merged dual mass
    /// is over `ε(B−1)`, every part's remaining steps are dropped. Each
    /// consumed step is applied as the loop applies its own steps, with
    /// its request remapped to its batch position, the global `ln D₁`
    /// and the running routed value written into its record. No
    /// shortest-path work is done.
    ///
    /// Each part is one recorded run: its trace over a sub-batch, and
    /// the batch position of each of the sub-batch's requests
    /// (`positions[local id]`). `config` and `ctx` must be the ones the
    /// parts were recorded under (each part may further restrict
    /// `ctx.routable`).
    pub fn merge(
        instance: &UfpInstance,
        config: &BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
        parts: &[(&EpochResumeTrace, &[u32])],
    ) -> MergedEpoch {
        let lp = EpochLoop::new(instance, config, ctx);
        let mut state = lp.start();
        let mut trace = EpochResumeTrace {
            potentials: Some(Arc::new(lp.potentials(&state))),
            ..EpochResumeTrace::default()
        };
        let mut cursors = vec![0usize; parts.len()];
        let mut order = Vec::new();
        let mut truncated = false;
        loop {
            let mut best: Option<(&ResumeStep, u32, usize)> = None;
            for (p, (part, positions)) in parts.iter().enumerate() {
                let Some(step) = part.steps.get(cursors[p]) else {
                    continue;
                };
                let pos = positions[step.record.selected.index()];
                let key = (step.record.ln_alpha, step.raw_score, pos);
                if best.is_none_or(|(b, bpos, _)| key < (b.record.ln_alpha, b.raw_score, bpos)) {
                    best = Some((step, pos, p));
                }
            }
            let Some((step, pos, p)) = best else { break };
            let ln_d1 = state.weights.ln_dual_sum();
            if ln_d1 > lp.ln_guard {
                truncated = true;
                break;
            }
            let record = IterationRecord {
                selected: RequestId(pos),
                ln_alpha: step.record.ln_alpha,
                ln_d1,
                routed_value_before: state.routed_value,
            };
            state.apply(instance, record, step.path.clone(), &step.bumps);
            trace.steps.push(ResumeStep {
                path: step.path.clone(),
                bumps: step.bumps.clone(),
                raw_score: step.raw_score,
                record,
            });
            order.push((p, cursors[p]));
            cursors[p] += 1;
        }
        let stop = if truncated {
            StopReason::Guard
        } else if state.steps_done == instance.num_requests() {
            StopReason::Exhausted
        } else if state.weights.ln_dual_sum() > lp.ln_guard {
            StopReason::Guard
        } else {
            StopReason::NoPath
        };
        MergedEpoch {
            outcome: lp.finish(state, stop),
            trace,
            order,
            truncated,
        }
    }

    /// Reconstruct the run state after the first `steps` selections, by
    /// replaying the recorded mutations (no shortest-path queries).
    /// `instance`, `config` and `ctx` must match the traced run — except
    /// that requests not selected within the prefix may carry different
    /// declared values (the counterfactuals of critical-value pricing).
    pub fn checkpoint(
        &self,
        instance: &UfpInstance,
        config: &BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
        steps: usize,
    ) -> EpochCheckpoint {
        EpochCheckpoint {
            state: EpochLoop::new(instance, config, ctx).checkpoint(self, steps),
        }
    }
}

/// Materialized state of an epoch run after some step prefix — the
/// resumable snapshot handed to [`bounded_ufp_epoch_resume`].
#[derive(Clone, Debug)]
pub struct EpochCheckpoint {
    pub(crate) state: EpochRunState,
}

impl EpochCheckpoint {
    /// Number of selection steps already applied in this snapshot.
    pub fn steps(&self) -> usize {
        self.state.steps_done
    }
}

/// Everything the Algorithm 1 main loop mutates, factored out so runs
/// can be checkpointed, cloned, and resumed.
#[derive(Clone, Debug)]
pub(crate) struct EpochRunState {
    pub(crate) weights: DualWeights,
    carry: Option<Vec<f64>>,
    pub(crate) remaining: Vec<RequestId>,
    solution: UfpSolution,
    routed_value: f64,
    records: Vec<IterationRecord>,
    /// Selection steps applied so far.
    steps_done: usize,
}

impl EpochRunState {
    /// Apply one selection step: its iteration record, the line-10
    /// exponents `bumps` along `path` (weights and carry), the routed
    /// value and the solution. This is the only code that applies a
    /// step: the loop applies the steps it selects through it, and
    /// checkpoints and the merge the steps they replay, so a replayed
    /// state is bit-identical to the one the loop reached. The remaining
    /// set is left to the caller; a checkpoint removes a whole prefix's
    /// selections at once.
    fn apply(
        &mut self,
        instance: &UfpInstance,
        record: IterationRecord,
        path: Path,
        bumps: &[f64],
    ) {
        debug_assert_eq!(
            record.routed_value_before, self.routed_value,
            "steps applied out of order"
        );
        self.records.push(record);
        for (&e, &exponent) in path.edges().iter().zip(bumps) {
            self.weights.bump(e, exponent);
            if let Some(k) = self.carry.as_mut() {
                k[e.index()] += exponent;
            }
        }
        self.routed_value += instance.request(record.selected).value;
        self.solution.routed.push((record.selected, path));
        self.steps_done += 1;
    }
}

/// One epoch run's setup, built once per entry point: the validated
/// inputs, the guard bound `B` and threshold `ε(B−1)`, and the
/// path-search filter. Every run of Algorithm 1 goes through it — the
/// real run, traced or not, a resumed run, every pricing pass, the merge
/// and the fan-out reference — and through its one loop skeleton
/// ([`EpochLoop::drive`]) and one way to apply a step
/// ([`EpochRunState::apply`]).
pub(crate) struct EpochLoop<'a> {
    instance: &'a UfpInstance,
    config: &'a BoundedUfpConfig,
    ctx: Option<EpochContext<'a>>,
    /// The guard bound `B`: minimum capacity over (usable) edges.
    b: f64,
    /// The guard threshold `ε(B−1)` on `ln D₁`.
    pub(crate) ln_guard: f64,
    /// `usable ∧ routable`, materialized only when the context restricts
    /// routing beyond usability.
    mask: Option<Vec<bool>>,
}

impl<'a> EpochLoop<'a> {
    pub(crate) fn new(
        instance: &'a UfpInstance,
        config: &'a BoundedUfpConfig,
        ctx: Option<&EpochContext<'a>>,
    ) -> Self {
        assert!(
            instance.is_normalized(),
            "Bounded-UFP requires a normalized instance (demands in (0,1]); \
             call UfpInstance::normalized() first"
        );
        assert!(
            config.epsilon > 0.0 && config.epsilon <= 1.0,
            "epsilon must lie in (0, 1]"
        );
        let m = instance.graph().num_edges();
        let (b, mask) = match ctx {
            None => (instance.graph().min_capacity(), None),
            Some(c) => {
                assert_eq!(c.capacities.len(), m);
                assert_eq!(c.usable.len(), m);
                assert_eq!(c.carry.len(), m);
                let b = c
                    .capacities
                    .iter()
                    .zip(c.usable)
                    .filter(|&(_, &u)| u)
                    .map(|(&cap, _)| cap)
                    .fold(f64::INFINITY, f64::min);
                let mask = c.routable.map(|r| {
                    assert_eq!(r.len(), m);
                    c.usable.iter().zip(r).map(|(&u, &x)| u && x).collect()
                });
                (b, mask)
            }
        };
        EpochLoop {
            instance,
            config,
            ctx: ctx.copied(),
            b,
            ln_guard: config.epsilon * (b - 1.0),
            mask,
        }
    }

    /// The run state before the first step.
    fn start(&self) -> EpochRunState {
        let weights = match self.ctx {
            None => DualWeights::new(self.instance.graph()),
            Some(c) => DualWeights::with_context(c.capacities, c.usable, c.carry),
        };
        let remaining: Vec<RequestId> = self.instance.request_ids().collect();
        let n = remaining.len();
        EpochRunState {
            weights,
            carry: self.ctx.map(|c| c.carry.to_vec()),
            remaining,
            solution: UfpSolution::empty(),
            routed_value: 0.0,
            records: Vec::with_capacity(n),
            steps_done: 0,
        }
    }

    /// The run state after the first `steps` steps of `trace`, replayed
    /// (no shortest-path queries).
    pub(crate) fn checkpoint(&self, trace: &EpochResumeTrace, steps: usize) -> EpochRunState {
        assert!(
            steps <= trace.steps.len(),
            "checkpoint past the end of the trace ({steps} > {})",
            trace.steps.len()
        );
        let mut state = self.start();
        let prefix = &trace.steps[..steps];
        for step in prefix {
            state.apply(self.instance, step.record, step.path.clone(), &step.bumps);
        }
        // The prefix's selections leave the remaining set in one
        // order-preserving pass, not one `retain` per step.
        let mut selected = vec![false; self.instance.num_requests()];
        for step in prefix {
            selected[step.record.selected.index()] = true;
        }
        state.remaining.retain(|r| !selected[r.index()]);
        state
    }

    /// The path-search filter every query of the run shares.
    fn usable(&self) -> Option<&[bool]> {
        self.mask.as_deref().or(self.ctx.map(|c| c.usable))
    }

    /// What the argmin reads of the loop state.
    fn inputs<'s>(&'s self, state: &'s EpochRunState) -> SelectInputs<'s> {
        SelectInputs {
            instance: self.instance,
            weights: &state.weights,
            remaining: &state.remaining,
            usable: self.usable(),
            obs: &self.config.obs,
        }
    }

    /// Distance-to-target bounds at `state`'s weights, under the run's
    /// path-search filter (no tree is built yet).
    fn potentials(&self, state: &EpochRunState) -> Potentials {
        Potentials::new(self.instance.graph(), &state.weights, self.usable())
    }

    /// Run Algorithm 1's main loop from `state` until it stops, with the
    /// incremental selector as its argmin, or the fan-out reference
    /// under [`BoundedUfpConfig::fan_out_reference`]. The two argmins
    /// are bit-identical by the monotonicity contract (proptested): the
    /// reference changes cost, never results.
    ///
    /// * `trace` — when set, every step is appended to it as a
    ///   [`ResumeStep`], and the incremental selector logs its class
    ///   answers there (the traced run).
    /// * `shadow` — when set, the run is a pricing pass for one request
    ///   that is *not* in the remaining set: the argmin keeps it as a
    ///   phantom target, the shadow sees its distance at every step's
    ///   argmin (before the step is applied), and learns at a `NoPath`
    ///   or `Exhausted` stop whether it still has a path, which is all
    ///   exact critical-value pricing needs ([`crate::critical`]). The
    ///   incremental selector starts from the shadow's trace log.
    ///
    /// The incremental selector's lazy queries prune with
    /// distance-to-target bounds: a pricing pass shares its trace's, and
    /// any other run builds its own at the weights it starts from,
    /// keeping them in `trace` when it records one.
    pub(crate) fn run(
        &self,
        state: &mut EpochRunState,
        mut trace: Option<&mut EpochResumeTrace>,
        shadow: Option<&mut Shadow<'_>>,
    ) -> StopReason {
        let phantom = shadow.as_ref().map(|s| s.request);
        if self.config.fan_out {
            let fan_out = FanOut {
                phantom,
                phantom_dist: None,
            };
            return self.drive(fan_out, state, trace, shadow);
        }
        // Selector state is *derived*: a cold selector rebuilds it from
        // the loop state at any point, so checkpoints and snapshots need
        // no knowledge of it. A traced run logs it, and a pricing pass
        // seeds from that log.
        let inputs = self.inputs(state);
        let mut selector = IncrementalSelector::new(phantom, &inputs);
        let potentials = match shadow.as_deref() {
            Some(s) => {
                selector.seed(&s.trace.log, s.step);
                s.trace.potentials.clone()
            }
            None => Some(Arc::new(self.potentials(state))),
        };
        if let Some(t) = trace.as_deref_mut() {
            t.potentials = potentials.clone();
            selector.record();
        }
        if let Some(p) = potentials {
            selector.bound_by(p, &inputs);
        }
        self.drive(selector, state, trace, shadow)
    }

    /// The loop skeleton, the one copy: exhaustion check, guard check,
    /// argmin (`NoPath` when it finds none), the shadow's look at its
    /// phantom, the step, and at a pass's end its phantom's
    /// reachability.
    fn drive<A: Argmin>(
        &self,
        mut argmin: A,
        state: &mut EpochRunState,
        mut trace: Option<&mut EpochResumeTrace>,
        mut shadow: Option<&mut Shadow<'_>>,
    ) -> StopReason {
        let instance = self.instance;
        // The current step's line-10 exponents, one buffer for the run.
        let mut bumps = Vec::new();
        let stop = loop {
            if state.remaining.is_empty() {
                break StopReason::Exhausted;
            }
            let ln_d1 = state.weights.ln_dual_sum();
            if ln_d1 > self.ln_guard {
                break StopReason::Guard;
            }
            let inputs = self.inputs(state);
            let Some((selected, score, path)) = argmin.select(&inputs) else {
                break StopReason::NoPath;
            };
            if let Some(s) = shadow.as_deref_mut() {
                s.observe(instance, argmin.phantom_distance(&inputs), selected, score);
            }

            // Claim 3.6 bookkeeping: α(i) in log space (the shift
            // restores the true scale of the materialized distance).
            let record = IterationRecord {
                selected,
                ln_alpha: if score > 0.0 {
                    score.ln() + state.weights.shift()
                } else {
                    f64::NEG_INFINITY
                },
                ln_d1,
                routed_value_before: state.routed_value,
            };
            // Line 10: y_e ← y_e · e^{εB d / c_e} along the chosen path.
            let scale = self.config.epsilon * self.b * instance.request(selected).demand;
            bumps.clear();
            bumps.extend(
                path.edges()
                    .iter()
                    .map(|&e| scale / state.weights.capacity(e)),
            );
            if let Some(t) = trace.as_deref_mut() {
                t.steps.push(ResumeStep {
                    path: path.clone(),
                    bumps: bumps.clone(),
                    raw_score: score,
                    record,
                });
            }
            state.apply(instance, record, path, &bumps);
            state.remaining.retain(|&r| r != selected);
            let (_, path) = state.solution.routed.last().expect("the step was routed");
            argmin.after_step(selected, path, &state.weights);
        };
        if let Some(s) = shadow {
            if matches!(stop, StopReason::NoPath | StopReason::Exhausted) {
                s.reachable = argmin.phantom_reachable(&self.inputs(state));
            }
        }
        let log = argmin.finish(&self.config.obs);
        if let Some(t) = trace {
            t.log = log;
        }
        stop
    }

    /// Package a finished run state into an [`EpochOutcome`].
    pub(crate) fn finish(&self, state: EpochRunState, stop_reason: StopReason) -> EpochOutcome {
        let trace = RunTrace {
            records: state.records,
            ln_guard_threshold: self.ln_guard,
            stop_reason,
            certificate: if self.ctx.is_some() {
                Certificate::None
            } else {
                Certificate::Claim36
            },
        };
        EpochOutcome {
            run: UfpRunResult {
                solution: state.solution,
                trace,
            },
            carry: state.carry.unwrap_or_default(),
        }
    }
}

/// The paper-literal argmin: a full shortest-path fan-out every
/// iteration, grouped by source vertex, with the `(score, id)`
/// tie-break. The reference the incremental selector is proptested
/// against. A pricing pass's phantom is one more target of the fan-out,
/// left out of the argmin.
struct FanOut {
    phantom: Option<RequestId>,
    /// The phantom's distance in the last fan-out (`None`: no path).
    phantom_dist: Option<f64>,
}

impl FanOut {
    fn query(inputs: &SelectInputs<'_>, targets: &[RequestId]) -> Vec<(RequestId, f64, Path)> {
        let _span = inputs.obs.span(Phase::SelectionDijkstra);
        shortest_paths_grouped(inputs.instance, targets, inputs.weights, inputs.usable)
    }
}

impl Argmin for FanOut {
    fn select(&mut self, inputs: &SelectInputs<'_>) -> Option<(RequestId, f64, Path)> {
        let mut targets = std::borrow::Cow::Borrowed(inputs.remaining);
        if let Some(p) = self.phantom {
            targets.to_mut().push(p);
        }
        let mut findings = Self::query(inputs, &targets);

        // Select r̂ minimizing (d/v)·|p| — deterministic tie-break on
        // request id (`<` keeps the first minimum among equal scores,
        // and the fan-out yields findings in `(src, id)` order, where
        // explicit id comparison resolves ties identically).
        let mut best: Option<(f64, usize)> = None;
        self.phantom_dist = None;
        for (i, (request, dist, _)) in findings.iter().enumerate() {
            if Some(*request) == self.phantom {
                self.phantom_dist = Some(*dist);
                continue;
            }
            let score = inputs.instance.request(*request).density() * dist;
            let better = match best {
                None => true,
                Some((bs, bi)) => score < bs || (score == bs && *request < findings[bi].0),
            };
            if better {
                best = Some((score, i));
            }
        }
        let (score, idx) = best?;
        // Findings order is dead after the argmin.
        let (selected, _, path) = findings.swap_remove(idx);
        Some((selected, score, path))
    }

    fn phantom_distance(&mut self, _inputs: &SelectInputs<'_>) -> Option<f64> {
        self.phantom_dist
    }

    fn phantom_reachable(&mut self, inputs: &SelectInputs<'_>) -> bool {
        let phantom = self.phantom.expect("only a pricing pass asks");
        !Self::query(inputs, &[phantom]).is_empty()
    }

    fn after_step(&mut self, _selected: RequestId, _path: &Path, _weights: &DualWeights) {}

    fn finish(&mut self, _obs: &Recorder) -> SelectorLog {
        SelectorLog::default()
    }
}

/// Run Algorithm 1 over one epoch of a long-lived network. `ctx` carries
/// the residual state; `None` reproduces the one-shot behavior exactly.
///
/// Per-epoch feasibility: with `B = min` *usable* residual capacity, the
/// Lemma 3.3 argument gives load `≤ c_e(B−1)/B + d ≤ c_e` on every edge
/// whenever every admitted demand satisfies `d ≤ c_e/B`, which holds for
/// normalized demands as long as unusable edges are exactly those with
/// residual below the caller's floor `≥ 1`. The streaming engine keeps
/// cumulative feasibility by induction over epochs.
pub fn bounded_ufp_epoch(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
) -> EpochOutcome {
    run_epoch(instance, config, ctx, None)
}

/// [`bounded_ufp_epoch`] that additionally records a per-step
/// [`EpochResumeTrace`]. The outcome is bit-identical to the untraced
/// run; the trace enables prefix-resumed counterfactual runs, such as
/// [`crate::critical_value_exact`]'s pricing passes.
pub fn bounded_ufp_epoch_traced(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
) -> (EpochOutcome, EpochResumeTrace) {
    let mut trace = EpochResumeTrace::default();
    let outcome = run_epoch(instance, config, ctx, Some(&mut trace));
    if config.obs.is_enabled() {
        config
            .obs
            .gauge_set("core.resume_trace_bytes", trace.heap_bytes() as f64);
    }
    (outcome, trace)
}

fn run_epoch(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
    trace: Option<&mut EpochResumeTrace>,
) -> EpochOutcome {
    let lp = EpochLoop::new(instance, config, ctx);
    let mut state = lp.start();
    let stop_reason = lp.run(&mut state, trace, None);
    if config.obs.is_enabled() {
        // The paper's internal signals, gauged once per epoch run:
        // remaining guard headroom `ε(B−1) − ln D₁`, dual-weight
        // growth, and how often the log-sum-exp scale re-centered.
        // Counterfactual runs (the resume entry points and exact
        // pricing passes) are deliberately not gauged — they would drown
        // the real epoch's signal in replay noise.
        let obs = &config.obs;
        obs.gauge_set(
            "core.guard_slack",
            lp.ln_guard - state.weights.ln_dual_sum(),
        );
        obs.gauge_set("core.dual_weight_max_ln_y", state.weights.max_ln_y());
        obs.gauge_set("core.weight_recenters", state.weights.recenters() as f64);
        obs.counter_add("core.epoch_runs", 1);
        obs.counter_add("core.steps_applied", state.steps_done as u64);
    }
    lp.finish(state, stop_reason)
}

/// Resume an epoch run from `checkpoint` and drive it to completion.
///
/// Provided `instance` differs from the traced instance only in ways
/// that cannot alter the checkpointed prefix — in particular, lowering
/// the declared value of a request selected *at or after* the
/// checkpoint's step — the outcome is **bit-identical** to running
/// [`bounded_ufp_epoch`] on `instance` from scratch with the same
/// `config` and `ctx` (which must match the traced run).
pub fn bounded_ufp_epoch_resume(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
    checkpoint: EpochCheckpoint,
) -> EpochOutcome {
    let lp = EpochLoop::new(instance, config, ctx);
    let mut state = checkpoint.state;
    let stop_reason = lp.run(&mut state, None, None);
    lp.finish(state, stop_reason)
}

/// Group requests by source vertex, deterministically: sorted by
/// `(src, id)`, so within each group ids ascend and groups ascend by
/// source. Both the main loop's distance fan-out and the repetitions
/// variant derive their query order — and therefore the argmin
/// tie-break order — from this one function.
pub(crate) fn group_by_source(
    instance: &UfpInstance,
    remaining: &[RequestId],
) -> Vec<(NodeId, Vec<RequestId>)> {
    let mut sorted: Vec<RequestId> = remaining.to_vec();
    sorted.sort_unstable_by_key(|r| (instance.request(*r).src, *r));
    let mut groups: Vec<(NodeId, Vec<RequestId>)> = Vec::new();
    for r in sorted {
        let src = instance.request(r).src;
        match groups.last_mut() {
            Some((s, members)) if *s == src => members.push(r),
            _ => groups.push((src, vec![r])),
        }
    }
    groups
}

/// One shortest-path query per source vertex over the `usable` edges
/// (all edges when `None`), answering every remaining request from it:
/// `(request, distance, path)` for each request with a path, in
/// `(src, id)` order. The fan-out reference loop takes its argmin from
/// these findings; the repetitions algorithm routes every one of them.
pub(crate) fn shortest_paths_grouped(
    instance: &UfpInstance,
    remaining: &[RequestId],
    weights: &DualWeights,
    usable: Option<&[bool]>,
) -> Vec<(RequestId, f64, Path)> {
    let graph = instance.graph();
    let mut dij = Dijkstra::new(graph.num_nodes());
    let mut pbuf = Path::trivial(NodeId(0));
    let mut findings = Vec::with_capacity(remaining.len());
    for (src, members) in group_by_source(instance, remaining) {
        let targets: Vec<NodeId> = members.iter().map(|r| instance.request(*r).dst).collect();
        dij.run(graph, weights.weights(), src, Targets::Set(&targets), |e| {
            usable.is_none_or(|u| u[e.index()])
        });
        findings.extend(members.iter().zip(&targets).filter_map(|(&r, &dst)| {
            let dist = dij.distance(dst)?;
            dij.path_to_into(dst, &mut pbuf)
                .then(|| (r, dist, pbuf.clone()))
        }));
    }
    findings
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::request::Request;
    use ufp_netgraph::graph::GraphBuilder;
    use ufp_netgraph::ids::NodeId;

    /// The step index at which `r` was selected, if it was.
    fn selection_step(trace: &EpochResumeTrace, r: RequestId) -> Option<usize> {
        trace.steps.iter().position(|s| s.record.selected == r)
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A wide single edge easily fits everything.
    #[test]
    fn routes_everything_when_capacity_abounds() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 100.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..10)
                .map(|_| Request::new(n(0), n(1), 1.0, 1.0))
                .collect(),
        );
        let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
        assert_eq!(res.solution.len(), 10);
        assert_eq!(res.trace.stop_reason, StopReason::Exhausted);
        assert!(res.solution.check_feasible(&inst, false).is_ok());
    }

    #[test]
    fn output_is_always_capacity_feasible() {
        // Lemma 3.3: the guard alone keeps the output feasible, even with
        // far more demand than capacity.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 10.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..100)
                .map(|i| Request::new(n(0), n(1), 1.0, 1.0 + (i % 7) as f64))
                .collect(),
        );
        for eps in [0.1, 0.3, 0.5, 1.0] {
            let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(eps));
            assert!(
                res.solution.check_feasible(&inst, false).is_ok(),
                "eps={eps}: infeasible output"
            );
            assert!(res.solution.len() <= 10, "eps={eps}: capacity is 10");
        }
    }

    #[test]
    fn prefers_high_value_per_demand() {
        // One slot: capacity exactly fits one unit-demand request. The
        // request with the lowest d/v (= highest value) must win.
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 2.0);
        let inst = UfpInstance::new(
            gb.build(),
            vec![
                Request::new(n(0), n(1), 1.0, 1.0),
                Request::new(n(0), n(1), 1.0, 10.0),
                Request::new(n(0), n(1), 1.0, 3.0),
            ],
        );
        let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
        assert!(res.solution.contains(crate::request::RequestId(1)));
        // first pick is the most valuable request
        assert_eq!(res.solution.routed[0].0, crate::request::RequestId(1));
    }

    #[test]
    fn avoids_congested_edges() {
        // Diamond: after loading the top path, the algorithm should route
        // via the bottom.
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 20.0); // top
        gb.add_edge(n(1), n(3), 20.0);
        gb.add_edge(n(0), n(2), 20.0); // bottom
        gb.add_edge(n(2), n(3), 20.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..30)
                .map(|_| Request::new(n(0), n(3), 1.0, 1.0))
                .collect(),
        );
        let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.5));
        assert!(res.solution.check_feasible(&inst, false).is_ok());
        // both paths must be used — one path alone holds only 20
        assert!(
            res.solution.len() > 20,
            "routed {} requests",
            res.solution.len()
        );
        let loads = res.solution.edge_loads(&inst);
        assert!(loads[0] > 0.0 && loads[2] > 0.0, "loads {loads:?}");
    }

    #[test]
    fn dual_certificate_bounds_the_optimum() {
        // OPT here is exactly 10 (capacity 10, unit demands, unit values).
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 10.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..30)
                .map(|_| Request::new(n(0), n(1), 1.0, 1.0))
                .collect(),
        );
        let res = bounded_ufp(&inst, &BoundedUfpConfig::with_epsilon(0.4));
        let bound = res.dual_upper_bound().expect("certificate applies");
        assert!(bound >= 10.0 - 1e-6, "dual bound {bound} below OPT 10");
        let ratio = res.certified_ratio(&inst).unwrap();
        assert!(ratio >= 1.0 - 1e-9);
    }

    #[test]
    fn disconnected_requests_stop_cleanly() {
        let gb = GraphBuilder::directed(4);
        let inst = UfpInstance::new(gb.build(), vec![Request::new(n(0), n(1), 1.0, 1.0)]);
        let res = bounded_ufp(&inst, &BoundedUfpConfig::default());
        assert!(res.solution.is_empty());
        assert_eq!(res.trace.stop_reason, StopReason::NoPath);
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn rejects_unnormalized_instances() {
        let mut gb = GraphBuilder::directed(2);
        gb.add_edge(n(0), n(1), 10.0);
        let inst = UfpInstance::new(gb.build(), vec![Request::new(n(0), n(1), 2.0, 1.0)]);
        bounded_ufp(&inst, &BoundedUfpConfig::default());
    }

    #[test]
    fn trivial_epoch_context_is_bit_identical_to_one_shot() {
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 12.0);
        gb.add_edge(n(1), n(3), 9.0);
        gb.add_edge(n(0), n(2), 11.0);
        gb.add_edge(n(2), n(3), 10.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..25)
                .map(|i| {
                    Request::new(
                        n(0),
                        n(3),
                        0.5 + 0.05 * (i % 10) as f64,
                        1.0 + (i % 4) as f64,
                    )
                })
                .collect(),
        );
        let cfg = BoundedUfpConfig::with_epsilon(0.4);
        let one_shot = bounded_ufp(&inst, &cfg);
        let caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        let usable = vec![true; caps.len()];
        let carry = vec![0.0; caps.len()];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let epoch = bounded_ufp_epoch(&inst, &cfg, Some(&ctx));
        assert_eq!(
            one_shot.solution.routed.len(),
            epoch.run.solution.routed.len()
        );
        for (a, b) in one_shot
            .solution
            .routed
            .iter()
            .zip(&epoch.run.solution.routed)
        {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.nodes(), b.1.nodes());
        }
        // Carry must record exactly the line-10 exponents of this run.
        let loads = epoch.run.solution.edge_loads(&inst);
        for (e, &k) in epoch.carry.iter().enumerate() {
            let expected = 0.4 * inst.graph().min_capacity() * loads[e] / caps[e];
            assert!(
                (k - expected).abs() < 1e-9,
                "edge {e}: carry {k} != {expected}"
            );
        }
    }

    #[test]
    fn saturated_edges_do_not_stall_the_epoch() {
        // Edge 0 is saturated (residual 0, unusable); the bottom path must
        // still admit traffic even though min-over-all-residuals is 0.
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 10.0); // saturated top
        gb.add_edge(n(1), n(3), 10.0);
        gb.add_edge(n(0), n(2), 10.0); // free bottom
        gb.add_edge(n(2), n(3), 10.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..6).map(|_| Request::new(n(0), n(3), 1.0, 1.0)).collect(),
        );
        let caps = [0.0, 10.0, 10.0, 10.0];
        let usable = [false, true, true, true];
        let carry = [0.0; 4];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let cfg = BoundedUfpConfig::with_epsilon(0.5);
        let epoch = bounded_ufp_epoch(&inst, &cfg, Some(&ctx));
        assert!(!epoch.run.solution.is_empty(), "bottom path should admit");
        let loads = epoch.run.solution.edge_loads(&inst);
        assert_eq!(loads[0], 0.0, "saturated edge must stay untouched");
        assert!(loads[2] > 0.0);
    }

    #[test]
    fn carried_weights_steer_later_epochs() {
        // Same diamond; heavy carry on the top path pushes epoch-2 routes
        // to the bottom even with full residual capacity everywhere.
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 20.0);
        gb.add_edge(n(1), n(3), 20.0);
        gb.add_edge(n(0), n(2), 20.0);
        gb.add_edge(n(2), n(3), 20.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..4).map(|_| Request::new(n(0), n(3), 1.0, 1.0)).collect(),
        );
        let caps = [20.0; 4];
        let usable = [true; 4];
        let carry = [5.0, 5.0, 0.0, 0.0];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let cfg = BoundedUfpConfig::with_epsilon(0.5);
        let epoch = bounded_ufp_epoch(&inst, &cfg, Some(&ctx));
        let loads = epoch.run.solution.edge_loads(&inst);
        assert!(
            loads[0] == 0.0 && loads[2] > 0.0,
            "carry ignored: {loads:?}"
        );
    }

    /// A congested diamond with heterogeneous requests — enough structure
    /// that selections, guard stops, and paths all come into play.
    fn resume_fixture() -> (UfpInstance, BoundedUfpConfig) {
        let mut gb = GraphBuilder::directed(5);
        gb.add_edge(n(0), n(1), 9.0);
        gb.add_edge(n(1), n(4), 8.0);
        gb.add_edge(n(0), n(2), 10.0);
        gb.add_edge(n(2), n(4), 9.0);
        gb.add_edge(n(0), n(3), 7.0);
        gb.add_edge(n(3), n(4), 7.0);
        let inst = UfpInstance::new(
            gb.build(),
            (0..22)
                .map(|i| {
                    Request::new(
                        n(0),
                        n(4),
                        0.4 + 0.06 * (i % 9) as f64,
                        0.8 + 0.9 * ((i * 7) % 11) as f64,
                    )
                })
                .collect(),
        );
        (inst, BoundedUfpConfig::with_epsilon(0.4))
    }

    fn assert_outcomes_identical(a: &EpochOutcome, b: &EpochOutcome) {
        assert_eq!(a.run.solution.routed.len(), b.run.solution.routed.len());
        for (x, y) in a.run.solution.routed.iter().zip(&b.run.solution.routed) {
            assert_eq!(x.0, y.0, "selection order diverged");
            assert_eq!(x.1.nodes(), y.1.nodes(), "paths diverged");
        }
        assert_eq!(a.run.trace.stop_reason, b.run.trace.stop_reason);
        assert_eq!(a.run.trace.records.len(), b.run.trace.records.len());
        for (x, y) in a.run.trace.records.iter().zip(&b.run.trace.records) {
            assert_eq!(x.selected, y.selected);
            assert_eq!(x.ln_alpha.to_bits(), y.ln_alpha.to_bits());
            assert_eq!(x.ln_d1.to_bits(), y.ln_d1.to_bits());
            assert_eq!(
                x.routed_value_before.to_bits(),
                y.routed_value_before.to_bits()
            );
        }
        assert_eq!(a.carry.len(), b.carry.len());
        for (x, y) in a.carry.iter().zip(&b.carry) {
            assert_eq!(x.to_bits(), y.to_bits(), "carry diverged");
        }
    }

    #[test]
    fn traced_run_is_bit_identical_to_plain_run() {
        let (inst, cfg) = resume_fixture();
        let plain = bounded_ufp_epoch(&inst, &cfg, None);
        let (traced, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
        assert_outcomes_identical(&plain, &traced);
        assert_eq!(trace.num_steps(), plain.run.solution.routed.len());
    }

    #[test]
    fn resume_from_any_prefix_is_bit_identical() {
        let (inst, cfg) = resume_fixture();
        let caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        let usable = vec![true; caps.len()];
        let carry = vec![0.1; caps.len()];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &cfg, Some(&ctx));
        for prefix in 0..=trace.num_steps() {
            let ckpt = trace.checkpoint(&inst, &cfg, Some(&ctx), prefix);
            assert_eq!(ckpt.steps(), prefix);
            let resumed = bounded_ufp_epoch_resume(&inst, &cfg, Some(&ctx), ckpt);
            assert_outcomes_identical(&full, &resumed);
        }
    }

    #[test]
    fn lowered_value_probe_resumes_bit_identically() {
        // The payment-probe contract: lower a winner's declared value,
        // resume from its selection step — identical outcome to a full
        // re-run on the probed instance.
        let (inst, cfg) = resume_fixture();
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
        for (rid, _) in &full.run.solution.routed {
            let k = selection_step(&trace, *rid).unwrap();
            let declared = inst.request(*rid).value;
            for factor in [0.9, 0.5, 0.11, 0.01] {
                let probe =
                    inst.with_declared_type(*rid, inst.request(*rid).demand, declared * factor);
                let scratch = bounded_ufp_epoch(&probe, &cfg, None);
                let ckpt = trace.checkpoint(&probe, &cfg, None, k);
                let resumed = bounded_ufp_epoch_resume(&probe, &cfg, None, ckpt);
                assert_outcomes_identical(&scratch, &resumed);
            }
        }
    }

    /// A recorded trace rebuilt as a one-part merge — the assembly a
    /// sharded deployment uses — with identity batch positions. The
    /// result has no selector log.
    pub(crate) fn reassemble(
        inst: &UfpInstance,
        cfg: &BoundedUfpConfig,
        ctx: Option<&EpochContext<'_>>,
        trace: &EpochResumeTrace,
    ) -> EpochResumeTrace {
        let positions: Vec<u32> = (0..inst.num_requests() as u32).collect();
        EpochResumeTrace::merge(inst, cfg, ctx, &[(trace, &positions)]).trace
    }

    #[test]
    fn pushed_steps_checkpoint_and_resume_like_the_recorded_trace() {
        let (inst, cfg) = resume_fixture();
        let caps: Vec<f64> = inst.graph().edges().iter().map(|e| e.capacity).collect();
        let usable = vec![true; caps.len()];
        let carry = vec![0.1; caps.len()];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let (_, trace) = bounded_ufp_epoch_traced(&inst, &cfg, Some(&ctx));
        let rebuilt = reassemble(&inst, &cfg, Some(&ctx), &trace);
        assert_eq!(rebuilt.num_steps(), trace.num_steps());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in trace.steps.iter().zip(&rebuilt.steps) {
            assert_eq!(a.path.edges(), b.path.edges());
            assert_eq!(bits(&a.bumps), bits(&b.bumps));
            assert_eq!(a.raw_score.to_bits(), b.raw_score.to_bits());
            let (x, y) = (&a.record, &b.record);
            assert_eq!(x.selected, y.selected);
            assert_eq!(
                bits(&[x.ln_alpha, x.ln_d1, x.routed_value_before]),
                bits(&[y.ln_alpha, y.ln_d1, y.routed_value_before])
            );
        }
        for prefix in 0..=rebuilt.num_steps() {
            let a = bounded_ufp_epoch_resume(
                &inst,
                &cfg,
                Some(&ctx),
                trace.checkpoint(&inst, &cfg, Some(&ctx), prefix),
            );
            let b = bounded_ufp_epoch_resume(
                &inst,
                &cfg,
                Some(&ctx),
                rebuilt.checkpoint(&inst, &cfg, Some(&ctx), prefix),
            );
            assert_outcomes_identical(&a, &b);
        }
    }

    #[test]
    fn probe_resume_over_a_pushed_trace_is_bit_identical() {
        // The global-payment contract: counterfactual resumes and exact
        // critical values over an externally assembled trace match the
        // engine-recorded one bit for bit.
        let (inst, cfg) = resume_fixture();
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
        let rebuilt = reassemble(&inst, &cfg, None, &trace);
        for (rid, _) in &full.run.solution.routed {
            let k = selection_step(&rebuilt, *rid).unwrap();
            assert_eq!(k, selection_step(&trace, *rid).unwrap());
            let declared = inst.request(*rid).value;
            for factor in [0.9, 0.5, 0.11, 0.01] {
                let probe =
                    inst.with_declared_type(*rid, inst.request(*rid).demand, declared * factor);
                let scratch = bounded_ufp_epoch(&probe, &cfg, None);
                let ckpt = rebuilt.checkpoint(&probe, &cfg, None, k);
                let resumed = bounded_ufp_epoch_resume(&probe, &cfg, None, ckpt);
                assert_outcomes_identical(&scratch, &resumed);
            }
            let recorded = crate::critical_value_exact(&inst, &cfg, None, &trace, k);
            let merged = crate::critical_value_exact(&inst, &cfg, None, &rebuilt, k);
            assert_eq!(recorded.to_bits(), merged.to_bits());
        }
    }

    #[test]
    fn merge_trips_the_global_guard_where_a_single_run_stops() {
        // Two disjoint unit-demand lanes `0 → 1` and `2 → 3`, one part
        // each, both planned against the global context: each part sees
        // only its own lane's dual mass grow and runs past the point at
        // which the two lanes together cross `ε(B−1)`.
        let mut gb = GraphBuilder::directed(4);
        gb.add_edge(n(0), n(1), 10.0);
        gb.add_edge(n(2), n(3), 10.0);
        let requests: Vec<Request> = (0..24)
            .map(|i| {
                let lane = (i % 2) as u32 * 2;
                Request::new(n(lane), n(lane + 1), 1.0, 1.0 + 0.13 * i as f64)
            })
            .collect();
        let inst = UfpInstance::new(gb.build(), requests.clone());
        let cfg = BoundedUfpConfig::with_epsilon(0.5);
        let caps = [10.0; 2];
        let usable = [true; 2];
        let carry = [0.0; 2];
        let ctx = EpochContext {
            capacities: &caps,
            usable: &usable,
            carry: &carry,
            routable: None,
        };
        let (single, single_trace) = bounded_ufp_epoch_traced(&inst, &cfg, Some(&ctx));
        assert_eq!(single.run.trace.stop_reason, StopReason::Guard);

        let lanes = [[true, false], [false, true]];
        let runs: Vec<(Vec<u32>, EpochResumeTrace)> = lanes
            .iter()
            .enumerate()
            .map(|(lane, routable)| {
                let positions: Vec<u32> = (lane as u32..24).step_by(2).collect();
                let batch = positions.iter().map(|&i| requests[i as usize]).collect();
                let sub =
                    UfpInstance::from_shared(std::sync::Arc::clone(inst.shared_graph()), batch);
                let part_ctx = EpochContext {
                    routable: Some(routable),
                    ..ctx
                };
                let (_, trace) = bounded_ufp_epoch_traced(&sub, &cfg, Some(&part_ctx));
                (positions, trace)
            })
            .collect();
        let parts: Vec<_> = runs.iter().map(|(p, t)| (t, &p[..])).collect();
        let merged = EpochResumeTrace::merge(&inst, &cfg, Some(&ctx), &parts);

        assert!(merged.truncated);
        let recorded: usize = runs.iter().map(|(_, t)| t.num_steps()).sum();
        assert!(merged.order.len() < recorded, "the guard cut no part short");
        assert!(merged.order.iter().any(|&(p, _)| p == 0));
        assert!(merged.order.iter().any(|&(p, _)| p == 1));
        assert_outcomes_identical(&single, &merged.outcome);
        for k in 0..single_trace.num_steps() {
            let a = crate::critical_value_exact(&inst, &cfg, Some(&ctx), &single_trace, k);
            let b = crate::critical_value_exact(&inst, &cfg, Some(&ctx), &merged.trace, k);
            assert_eq!(a.to_bits(), b.to_bits(), "step {k}");
        }
    }

    #[test]
    fn raw_score_is_the_pre_ln_selection_key() {
        // The recorded raw score is the selection loop's own comparison
        // key: ln_alpha = ln(raw_score) + shift, so on a run that never
        // re-centers the offset is a single constant across all steps,
        // and argmin scores never decrease (weights only grow) — the two
        // properties the cross-shard merge tie-break leans on.
        let (inst, cfg) = resume_fixture();
        let (_, trace) = bounded_ufp_epoch_traced(&inst, &cfg, None);
        assert!(trace.num_steps() > 1);
        let shift = trace.steps[0].record.ln_alpha - trace.steps[0].raw_score.ln();
        let mut prev = f64::NEG_INFINITY;
        for (i, s) in trace.steps.iter().enumerate() {
            assert!(s.raw_score > 0.0 && s.raw_score.is_finite());
            assert!(
                (s.record.ln_alpha - s.raw_score.ln() - shift).abs()
                    <= 1e-12 * shift.abs().max(1.0),
                "step {i}: ln_alpha is not ln(raw_score) + shift"
            );
            assert!(s.raw_score >= prev, "argmin scores must be nondecreasing");
            prev = s.raw_score;
        }
    }

    #[test]
    fn monotone_in_value_on_a_small_instance() {
        // Lemma 3.4 spot check: a selected request stays selected when its
        // value rises.
        let mut gb = GraphBuilder::directed(3);
        gb.add_edge(n(0), n(1), 4.0);
        gb.add_edge(n(1), n(2), 4.0);
        let base = vec![
            Request::new(n(0), n(2), 1.0, 2.0),
            Request::new(n(0), n(2), 1.0, 3.0),
            Request::new(n(0), n(1), 1.0, 1.0),
            Request::new(n(1), n(2), 0.7, 2.5),
        ];
        let inst = UfpInstance::new(gb.build(), base);
        let cfg = BoundedUfpConfig::with_epsilon(0.4);
        let res = bounded_ufp(&inst, &cfg);
        for rid in inst.request_ids() {
            if !res.solution.contains(rid) {
                continue;
            }
            for factor in [1.1, 2.0, 10.0] {
                let v = inst.request(rid).value * factor;
                let probe = inst.with_declared_type(rid, inst.request(rid).demand, v);
                let res2 = bounded_ufp(&probe, &cfg);
                assert!(
                    res2.solution.contains(rid),
                    "raising value of {rid} by {factor} dropped it"
                );
            }
        }
    }
}
