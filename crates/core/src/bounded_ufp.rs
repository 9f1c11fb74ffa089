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

use ufp_netgraph::dijkstra::{Dijkstra, Targets};
use ufp_netgraph::ids::NodeId;
use ufp_netgraph::path::Path;
use ufp_obs::{Phase, Recorder};

use crate::critical::Shadow;
use crate::instance::UfpInstance;
use crate::request::RequestId;
use crate::selection::{IncrementalSelector, SelectInputs, SelectorLog};
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
    /// exists only as the reference the equivalence tests and
    /// `selection_benches` compare against.
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
    /// external mergers can break `ln α` ties by the loop's own key.
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
/// (Invariant 3 in `crates/core/README.md`).
#[derive(Clone, Debug, Default)]
pub struct EpochResumeTrace {
    steps: Vec<ResumeStep>,
    log: SelectorLog,
}

/// Read-only view of one recorded selection step, exposed so external
/// replayers — in particular `ufp_shard`'s cross-shard reconciliation,
/// which merges several shards' traces into one global order and
/// re-applies the recorded bumps through a global [`DualWeights`] — can
/// reproduce the exact arithmetic of the traced run without re-running
/// any shortest-path work.
#[derive(Clone, Copy, Debug)]
pub struct TraceStep<'a> {
    /// The request this step selected.
    pub selected: RequestId,
    /// `ln α` of the selected path at selection time (shift-invariant,
    /// so scores recorded by runs with different materialization scales
    /// remain comparable).
    pub ln_alpha: f64,
    /// Raw argmin score `(d/v)·|p|` exactly as the selection loop
    /// compared it — the full-precision key behind `ln_alpha`, which
    /// loses up to one ulp in the `ln` round-trip. Tie-break on this
    /// (then on id) to reproduce single-run selection order exactly.
    /// Unlike `ln_alpha` it is in the run's materialization scale, so it
    /// is only comparable across runs whose `DualWeights` shifts agree
    /// (true for shards replaying the same epoch context until a
    /// re-center diverges — and a divergent re-center already perturbs
    /// `ln_alpha`'s own bits).
    pub raw_score: f64,
    /// The routed path.
    pub path: &'a Path,
    /// Line-10 exponent per path edge, verbatim as applied.
    pub bumps: &'a [f64],
}

impl EpochResumeTrace {
    /// Number of recorded selection steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Bytes the trace holds on the heap: the recorded steps and the
    /// selector log (lengths, not allocator capacities).
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
        steps + self.log.heap_bytes()
    }

    /// Read-only view of step `i` (panics past the end of the trace).
    pub fn step(&self, i: usize) -> TraceStep<'_> {
        let s = &self.steps[i];
        TraceStep {
            selected: s.record.selected,
            ln_alpha: s.record.ln_alpha,
            raw_score: s.raw_score,
            path: &s.path,
            bumps: &s.bumps,
        }
    }

    /// Append one externally supplied step — the assembly primitive for
    /// *merged* traces. A sharded engine's merge-replay interleaves the
    /// shards' recorded steps into the global `(ln α, raw score, id)`
    /// order; pushing each merged step here (with its request id remapped
    /// into the global epoch instance, `ln_d1` read from the global dual
    /// weights, and `routed_value_before` the global running value sum)
    /// yields an [`EpochResumeTrace`] over the global instance that
    /// behaves exactly like one produced by [`bounded_ufp_epoch_traced`]:
    /// [`Self::checkpoint`] replays it by arithmetic, and
    /// [`crate::critical_value_exact`] prices winners against it with the
    /// same O(suffix) resume discipline.
    ///
    /// `bumps` must hold one line-10 exponent per `path.edges()` entry,
    /// and `routed_value_before` must equal the sum of the previously
    /// pushed steps' request values in push order (the replay
    /// debug-asserts this ordering invariant).
    ///
    /// A pushed trace carries no selector log, so its pricing passes
    /// start cold: each pass re-queries every route class at its resume
    /// point. Payments are the same bits either way.
    #[allow(clippy::too_many_arguments)] // mirrors the recorded step verbatim
    pub fn push_step(
        &mut self,
        selected: RequestId,
        ln_alpha: f64,
        raw_score: f64,
        ln_d1: f64,
        routed_value_before: f64,
        path: Path,
        bumps: Vec<f64>,
    ) {
        assert_eq!(
            path.edges().len(),
            bumps.len(),
            "one bump exponent per path edge"
        );
        self.steps.push(ResumeStep {
            path,
            bumps,
            raw_score,
            record: IterationRecord {
                selected,
                ln_alpha,
                ln_d1,
                routed_value_before,
            },
        });
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
        assert!(
            steps <= self.steps.len(),
            "checkpoint past the end of the trace ({steps} > {})",
            self.steps.len()
        );
        validate_epoch_inputs(instance, config, ctx);
        let mut state = EpochRunState::init(instance, ctx);
        let prefix = &self.steps[..steps];
        for step in prefix {
            state.replay(instance, step);
        }
        // The prefix's selections leave the remaining set in one
        // order-preserving pass, not one `retain` per step.
        let mut selected = vec![false; instance.num_requests()];
        for step in prefix {
            selected[step.record.selected.index()] = true;
        }
        state.remaining.retain(|r| !selected[r.index()]);
        EpochCheckpoint { state }
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
    fn init(instance: &UfpInstance, ctx: Option<&EpochContext<'_>>) -> Self {
        let graph = instance.graph();
        let weights = match ctx {
            None => DualWeights::new(graph),
            Some(c) => DualWeights::with_context(c.capacities, c.usable, c.carry),
        };
        let carry: Option<Vec<f64>> = ctx.map(|c| c.carry.to_vec());
        let remaining: Vec<RequestId> = instance.request_ids().collect();
        let n = remaining.len();
        EpochRunState {
            weights,
            carry,
            remaining,
            solution: UfpSolution::empty(),
            routed_value: 0.0,
            records: Vec::with_capacity(n),
            steps_done: 0,
        }
    }

    /// Re-apply one recorded step: identical mutation order (record,
    /// bumps, carry, value, solution) and identical arithmetic
    /// to the live loop. The remaining set is left to the caller, which
    /// removes a whole prefix's selections at once; with that done, the
    /// state is bit-identical to having executed the steps.
    fn replay(&mut self, instance: &UfpInstance, step: &ResumeStep) {
        let req = *instance.request(step.record.selected);
        debug_assert_eq!(
            step.record.routed_value_before, self.routed_value,
            "resume trace replayed out of order"
        );
        self.records.push(step.record);
        for (&e, &exponent) in step.path.edges().iter().zip(&step.bumps) {
            self.weights.bump(e, exponent);
            if let Some(k) = self.carry.as_mut() {
                k[e.index()] += exponent;
            }
        }
        self.routed_value += req.value;
        self.solution
            .routed
            .push((step.record.selected, step.path.clone()));
        self.steps_done += 1;
    }
}

/// Shared input validation for all epoch entry points.
fn validate_epoch_inputs(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    ctx: Option<&EpochContext<'_>>,
) {
    assert!(
        instance.is_normalized(),
        "Bounded-UFP requires a normalized instance (demands in (0,1]); \
         call UfpInstance::normalized() first"
    );
    assert!(
        config.epsilon > 0.0 && config.epsilon <= 1.0,
        "epsilon must lie in (0, 1]"
    );
    if let Some(c) = ctx {
        let m = instance.graph().num_edges();
        assert_eq!(c.capacities.len(), m);
        assert_eq!(c.usable.len(), m);
        assert_eq!(c.carry.len(), m);
        if let Some(r) = c.routable {
            assert_eq!(r.len(), m);
        }
    }
}

/// The loop's path-search filter: `usable ∧ routable`, materialized only
/// when the context actually restricts routing beyond usability.
pub(crate) fn path_mask(ctx: Option<&EpochContext<'_>>) -> Option<Vec<bool>> {
    let c = ctx?;
    let r = c.routable?;
    Some(c.usable.iter().zip(r).map(|(&u, &x)| u && x).collect())
}

/// The guard bound `B`: minimum capacity over (usable) edges.
pub(crate) fn epoch_bound_b(instance: &UfpInstance, ctx: Option<&EpochContext<'_>>) -> f64 {
    match ctx {
        None => instance.graph().min_capacity(),
        Some(c) => c
            .capacities
            .iter()
            .zip(c.usable)
            .filter(|&(_, &u)| u)
            .map(|(&cap, _)| cap)
            .fold(f64::INFINITY, f64::min),
    }
}

/// The Algorithm 1 main loop over an [`EpochRunState`]: the incremental
/// selector, or the fan-out reference under
/// [`BoundedUfpConfig::fan_out_reference`]. Both bodies drive the same
/// [`apply_step`], and their selections are bit-identical by the
/// monotonicity contract (proptested) — the reference changes cost,
/// never results.
///
/// * `record` — when set, every executed step is appended to it as a
///   [`ResumeStep`], and the incremental selector logs its class
///   answers there (the traced run).
/// * `shadow` — when set, the run is a pricing pass for one request
///   that is *not* in the remaining set: both loop bodies keep it as a
///   phantom target, show the shadow its distance at every step's argmin
///   (before the step is applied), and report at a `NoPath` or
///   `Exhausted` stop whether it still has a path, which is all exact
///   critical-value pricing needs ([`crate::critical`]). The
///   incremental selector starts from the shadow's trace log.
#[allow(clippy::too_many_arguments)] // internal: one call site per entry point
pub(crate) fn run_epoch_loop(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    usable: Option<&[bool]>,
    b: f64,
    ln_guard: f64,
    state: &mut EpochRunState,
    record: Option<&mut EpochResumeTrace>,
    shadow: Option<&mut Shadow<'_>>,
) -> StopReason {
    let body = if config.fan_out {
        run_epoch_loop_fanout
    } else {
        run_epoch_loop_incremental
    };
    body(instance, config, usable, b, ln_guard, state, record, shadow)
}

/// The loop state as the incremental selector reads it at the top of
/// an iteration.
fn loop_inputs<'a>(
    instance: &'a UfpInstance,
    config: &'a BoundedUfpConfig,
    usable: Option<&'a [bool]>,
    state: &'a EpochRunState,
) -> SelectInputs<'a> {
    SelectInputs {
        instance,
        weights: &state.weights,
        usable,
        obs: &config.obs,
    }
}

/// Apply one selected step to the loop state: the iteration record, the
/// line-10 weight bumps, carry, routed value, the remaining set, and
/// the solution/trace appends — in exactly this order, which
/// [`EpochRunState::replay`] reproduces for bit-identical resumes. Both
/// loop bodies funnel through here so the mutation sequence cannot
/// diverge between them.
#[allow(clippy::too_many_arguments)] // internal: the loop bodies are the only callers
fn apply_step(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    b: f64,
    state: &mut EpochRunState,
    record_steps: Option<&mut Vec<ResumeStep>>,
    selected: RequestId,
    score: f64,
    ln_d1: f64,
    path: Path,
) {
    let eps = config.epsilon;
    let req = *instance.request(selected);

    // Claim 3.6 bookkeeping: α(i) in log space (shift restores the
    // true scale of the materialized distance).
    let ln_alpha = if score > 0.0 {
        score.ln() + state.weights.shift()
    } else {
        f64::NEG_INFINITY
    };
    let record = IterationRecord {
        selected,
        ln_alpha,
        ln_d1,
        routed_value_before: state.routed_value,
    };
    state.records.push(record);

    // Line 10: y_e ← y_e · e^{εB d / c_e} along the chosen path.
    let mut bumps = record_steps
        .is_some()
        .then(|| Vec::with_capacity(path.edges().len()));
    for &e in path.edges() {
        let c = state.weights.capacity(e);
        let exponent = eps * b * req.demand / c;
        state.weights.bump(e, exponent);
        if let Some(k) = state.carry.as_mut() {
            k[e.index()] += exponent;
        }
        if let Some(bs) = bumps.as_mut() {
            bs.push(exponent);
        }
    }

    state.routed_value += req.value;
    state.remaining.retain(|r| *r != selected);
    state.steps_done += 1;
    if let Some(steps) = record_steps {
        state.solution.routed.push((selected, path.clone()));
        steps.push(ResumeStep {
            path,
            bumps: bumps.unwrap_or_default(),
            raw_score: score,
            record,
        });
    } else {
        state.solution.routed.push((selected, path));
    }
}

/// The paper-literal loop: full shortest-path fan-out every iteration,
/// grouped by source vertex. The reference the incremental loop is
/// proptested against. A pricing pass's phantom is one more target of
/// the fan-out, left out of the argmin.
#[allow(clippy::too_many_arguments)]
fn run_epoch_loop_fanout(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    usable: Option<&[bool]>,
    b: f64,
    ln_guard: f64,
    state: &mut EpochRunState,
    mut record: Option<&mut EpochResumeTrace>,
    mut shadow: Option<&mut Shadow<'_>>,
) -> StopReason {
    let phantom = shadow.as_ref().map(|s| s.request);
    let query = |state: &EpochRunState, targets: &[RequestId]| {
        let _span = config.obs.span(Phase::SelectionDijkstra);
        shortest_paths_grouped(instance, targets, &state.weights, usable)
    };
    let stop = loop {
        if state.remaining.is_empty() {
            break StopReason::Exhausted;
        }
        let ln_d1 = state.weights.ln_dual_sum();
        if ln_d1 > ln_guard {
            break StopReason::Guard;
        }

        let mut targets = std::borrow::Cow::Borrowed(&state.remaining[..]);
        if let Some(p) = phantom {
            targets.to_mut().push(p);
        }
        let mut findings = query(state, &targets);

        // Select r̂ minimizing (d/v)·|p| — deterministic tie-break on
        // request id (`<` keeps the first minimum among equal scores,
        // and the fan-out yields findings in `(src, id)` order, where
        // explicit id comparison resolves ties identically).
        let mut best: Option<(f64, usize)> = None;
        let mut phantom_dist = None;
        for (i, (request, dist, _)) in findings.iter().enumerate() {
            if Some(*request) == phantom {
                phantom_dist = Some(*dist);
                continue;
            }
            let score = instance.request(*request).density() * dist;
            let better = match best {
                None => true,
                Some((bs, bi)) => score < bs || (score == bs && *request < findings[bi].0),
            };
            if better {
                best = Some((score, i));
            }
        }
        let Some((score, idx)) = best else {
            break StopReason::NoPath;
        };
        let selected = findings[idx].0;
        if let Some(s) = shadow.as_deref_mut() {
            s.observe(instance, phantom_dist, selected, score);
        }
        // Findings order is dead after the argmin.
        let path = findings.swap_remove(idx).2;

        apply_step(
            instance,
            config,
            b,
            state,
            record.as_deref_mut().map(|t| &mut t.steps),
            selected,
            score,
            ln_d1,
            path,
        );
    };
    if let Some(s) = shadow {
        if matches!(stop, StopReason::NoPath | StopReason::Exhausted) {
            s.reachable = !query(state, &[s.request]).is_empty();
        }
    }
    stop
}

/// The path [`apply_step`] just appended to the solution.
fn last_routed(state: &EpochRunState) -> &Path {
    &state
        .solution
        .routed
        .last()
        .expect("apply_step appends the routed path")
        .1
}

/// The incremental loop: route-class path cache + lazy score heap (see
/// [`crate::selection`]). Selector state is *derived*: a cold selector
/// rebuilds it from the loop state at any point, so checkpoints and
/// snapshots need no knowledge of it. A traced run logs it, and a
/// pricing pass seeds from that log.
#[allow(clippy::too_many_arguments)]
fn run_epoch_loop_incremental(
    instance: &UfpInstance,
    config: &BoundedUfpConfig,
    usable: Option<&[bool]>,
    b: f64,
    ln_guard: f64,
    state: &mut EpochRunState,
    mut record: Option<&mut EpochResumeTrace>,
    mut shadow: Option<&mut Shadow<'_>>,
) -> StopReason {
    let mut selector = IncrementalSelector::new(
        &state.remaining,
        shadow.as_ref().map(|s| s.request),
        &loop_inputs(instance, config, usable, state),
    );
    if let Some(s) = shadow.as_deref() {
        selector.seed(&s.trace.log, s.step);
    }
    if record.is_some() {
        selector.record();
    }
    let stop = loop {
        if state.remaining.is_empty() {
            break StopReason::Exhausted;
        }
        let ln_d1 = state.weights.ln_dual_sum();
        if ln_d1 > ln_guard {
            break StopReason::Guard;
        }

        let inputs = loop_inputs(instance, config, usable, state);
        let Some((selected, score)) = selector.select(&inputs) else {
            break StopReason::NoPath;
        };
        if let Some(s) = shadow.as_deref_mut() {
            s.observe(
                instance,
                selector.phantom_distance(&inputs),
                selected,
                score,
            );
        }
        // The winner's path comes straight from the cache: its exactness
        // is the invariant the dirty-set bookkeeping maintains. The
        // clone is the copy the solution owns either way.
        let path = selector.winner_path(selected).clone();
        apply_step(
            instance,
            config,
            b,
            state,
            record.as_deref_mut().map(|t| &mut t.steps),
            selected,
            score,
            ln_d1,
            path,
        );
        selector.after_step(selected, last_routed(state), &state.weights);
    };
    if let Some(s) = shadow {
        if matches!(stop, StopReason::NoPath | StopReason::Exhausted) {
            s.reachable = selector.phantom_reachable(&loop_inputs(instance, config, usable, state));
        }
    }
    if let Some(t) = record {
        t.log = selector.take_log();
    }
    stop
}

/// Package a finished run state into an [`EpochOutcome`].
fn finish_outcome(
    had_ctx: bool,
    state: EpochRunState,
    stop_reason: StopReason,
    ln_guard: f64,
) -> EpochOutcome {
    let trace = RunTrace {
        records: state.records,
        ln_guard_threshold: ln_guard,
        stop_reason,
        certificate: if had_ctx {
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
    record: Option<&mut EpochResumeTrace>,
) -> EpochOutcome {
    validate_epoch_inputs(instance, config, ctx);
    let b = epoch_bound_b(instance, ctx);
    let ln_guard = config.epsilon * (b - 1.0);
    let merged_mask = path_mask(ctx);
    let usable = merged_mask.as_deref().or(ctx.map(|c| c.usable));
    let mut state = EpochRunState::init(instance, ctx);
    let stop_reason = run_epoch_loop(
        instance, config, usable, b, ln_guard, &mut state, record, None,
    );
    if config.obs.is_enabled() {
        // The paper's internal signals, gauged once per epoch run:
        // remaining guard headroom `ε(B−1) − ln D₁`, dual-weight
        // growth, and how often the log-sum-exp scale re-centered.
        // Counterfactual runs (the resume entry points and exact
        // pricing passes) are deliberately not gauged — they would drown
        // the real epoch's signal in replay noise.
        let obs = &config.obs;
        obs.gauge_set("core.guard_slack", ln_guard - state.weights.ln_dual_sum());
        obs.gauge_set("core.dual_weight_max_ln_y", state.weights.max_ln_y());
        obs.gauge_set("core.weight_recenters", state.weights.recenters() as f64);
        obs.counter_add("core.epoch_runs", 1);
        obs.counter_add("core.steps_applied", state.steps_done as u64);
    }
    finish_outcome(ctx.is_some(), state, stop_reason, ln_guard)
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
    validate_epoch_inputs(instance, config, ctx);
    let b = epoch_bound_b(instance, ctx);
    let ln_guard = config.epsilon * (b - 1.0);
    let merged_mask = path_mask(ctx);
    let usable = merged_mask.as_deref().or(ctx.map(|c| c.usable));
    let mut state = checkpoint.state;
    let stop_reason = run_epoch_loop(
        instance, config, usable, b, ln_guard, &mut state, None, None,
    );
    finish_outcome(ctx.is_some(), state, stop_reason, ln_guard)
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

    /// Reassemble a recorded trace step by step through the public
    /// [`EpochResumeTrace::push_step`] API — the merged-trace assembly
    /// path a sharded engine uses — from the read-only step views plus
    /// the run's iteration records. The result has no selector log.
    pub(crate) fn reassemble(full: &EpochOutcome, trace: &EpochResumeTrace) -> EpochResumeTrace {
        let mut rebuilt = EpochResumeTrace::default();
        for i in 0..trace.num_steps() {
            let s = trace.step(i);
            let rec = &full.run.trace.records[i];
            rebuilt.push_step(
                s.selected,
                s.ln_alpha,
                s.raw_score,
                rec.ln_d1,
                rec.routed_value_before,
                s.path.clone(),
                s.bumps.to_vec(),
            );
        }
        rebuilt
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
        let (full, trace) = bounded_ufp_epoch_traced(&inst, &cfg, Some(&ctx));
        let rebuilt = reassemble(&full, &trace);
        assert_eq!(rebuilt.num_steps(), trace.num_steps());
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
        let rebuilt = reassemble(&full, &trace);
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
            let pushed = crate::critical_value_exact(&inst, &cfg, None, &rebuilt, k);
            assert_eq!(recorded.to_bits(), pushed.to_bits());
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
        let shift = trace.step(0).ln_alpha - trace.step(0).raw_score.ln();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..trace.num_steps() {
            let s = trace.step(i);
            assert!(s.raw_score > 0.0 && s.raw_score.is_finite());
            assert!(
                (s.ln_alpha - s.raw_score.ln() - shift).abs() <= 1e-12 * shift.abs().max(1.0),
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
