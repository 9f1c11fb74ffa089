//! Property-based engine/offline equivalence and safety tests.
//!
//! * **Single-epoch equivalence** — over a fresh network, one engine
//!   epoch is one-shot `bounded_ufp` + `CriticalValueMechanism`: same
//!   routed set, same paths, and exact payments the offline bisection
//!   brackets within its tolerance. This is the contract that lets the
//!   offline truthfulness analysis transfer to the online engine epoch by
//!   epoch.
//! * **Multi-epoch feasibility** — however a request stream is chopped
//!   into batches (with or without churn), the engine's active allocation
//!   never violates a base capacity, and without churn neither does the
//!   cumulative one.
//! * **Conservation** — accepted + rejected = arrivals, and admitted
//!   value/revenue accounting is consistent.
//! * **Thread independence** — a parallel pool (winners priced on pool
//!   workers) changes no report, payment or snapshot byte.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ufp_core::{bounded_ufp, BoundedUfpConfig, Request, RequestId, UfpInstance};
use ufp_engine::{Arrival, Engine, EngineConfig, EpochReport, PaymentPolicy, ResidualFloor};
use ufp_mechanism::{brackets_exact, CriticalValueMechanism, PaymentConfig, UfpAllocator};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::NodeId;
use ufp_netgraph::{bfs, generators};
use ufp_par::Pool;
use ufp_workloads::arrivals::{arrival_trace, ArrivalProcess, ArrivalTraceConfig};
use ufp_workloads::failures::{failure_trace, DrainWindow, FailureTraceConfig};
use ufp_workloads::random_ufp::required_b;

mod common;

/// Random small network plus connected requests (normalized demands).
fn arb_scenario() -> impl Strategy<Value = (Graph, Vec<Request>, f64)> {
    (3usize..8, 2usize..14, any::<u64>(), 1usize..10).prop_map(|(n, requests, seed, eps_decile)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_edges = n * (n - 1);
        let m = (max_edges / 2).clamp(2, max_edges);
        let cap = 3.0 + (seed % 9) as f64;
        let graph = generators::gnm_digraph(n, m, (cap, cap * 2.0), &mut rng);
        let mut reqs = Vec::new();
        let mut attempts = 0;
        while reqs.len() < requests && attempts < 2000 {
            attempts += 1;
            let src = NodeId(rng.random_range(0..n as u32));
            let dst = NodeId(rng.random_range(0..n as u32));
            if src == dst || !bfs::is_reachable(&graph, src, dst) {
                continue;
            }
            reqs.push(Request::new(
                src,
                dst,
                rng.random_range(0.3..=1.0),
                rng.random_range(0.5..4.0),
            ));
        }
        let epsilon = 0.1 * eps_decile as f64;
        (graph, reqs, epsilon)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One engine epoch over a fresh network == one-shot Algorithm 1 +
    /// critical-value payments: the offline bisection brackets every
    /// exact payment (`p ≤ p_bisect ≤ p·(1+tol)`).
    #[test]
    fn single_epoch_matches_offline_mechanism((graph, requests, epsilon) in arb_scenario()) {
        if requests.is_empty() {
            return Ok(());
        }
        let instance = UfpInstance::new(graph.clone(), requests.clone());

        // Offline: Algorithm 1 + critical-value payments.
        let offline_run = bounded_ufp(&instance, &BoundedUfpConfig::with_epsilon(epsilon));
        let mechanism = CriticalValueMechanism::new(UfpAllocator {
            config: BoundedUfpConfig::with_epsilon(epsilon),
        });
        let offline_outcome = mechanism.run(&instance);

        // Online: a single engine epoch.
        let config = EngineConfig::with_epsilon(epsilon)
            .with_payments(PaymentPolicy::critical_value());
        let mut engine = Engine::new(graph, config);
        let report = engine.submit_requests(&requests);

        // Same allocation, same routes, same order.
        prop_assert_eq!(report.accepted, offline_run.solution.len());
        let admissions = engine.admissions();
        prop_assert_eq!(admissions.len(), offline_run.solution.routed.len());
        for (adm, (rid, path)) in admissions.iter().zip(&offline_run.solution.routed) {
            prop_assert_eq!(adm.request, *rid);
            prop_assert_eq!(adm.path.nodes(), path.nodes());
        }

        // Per winner, the bisection brackets the exact payment.
        for adm in admissions {
            let offline_payment = offline_outcome.payments[adm.request.index()];
            prop_assert!(
                brackets_exact(adm.payment, offline_payment, &PaymentConfig::default()),
                "payment mismatch for {:?}: {} vs {}",
                adm.request, adm.payment, offline_payment
            );
        }
        let revenue = admissions.iter().fold(0.0, |acc, a| acc + a.payment);
        prop_assert_eq!(report.revenue.to_bits(), revenue.to_bits());
    }

    /// Chopping one request set into however many batches never violates
    /// feasibility of the cumulative allocation.
    #[test]
    fn multi_epoch_runs_stay_feasible(
        (graph, requests, epsilon) in arb_scenario(),
        batches in 1usize..5,
        decay in 0.0..=1.0f64,
    ) {
        let config = EngineConfig {
            carry_decay: decay,
            ..EngineConfig::with_epsilon(epsilon)
        };
        let mut engine = Engine::new(graph, config);
        let chunk = requests.len().div_ceil(batches).max(1);
        for batch in requests.chunks(chunk) {
            engine.submit_requests(batch);
            // Feasible at *every* epoch boundary, not just the end.
            prop_assert!(engine
                .active_solution()
                .check_feasible(&engine.instance(), false)
                .is_ok());
        }
        prop_assert!(engine
            .cumulative_solution()
            .check_feasible(&engine.instance(), false)
            .is_ok());
        let m = engine.metrics();
        prop_assert_eq!(m.arrivals, requests.len() as u64);
        prop_assert_eq!(m.accepted + m.rejected, m.arrivals);
    }

    /// Churn: TTL releases keep the *active* allocation feasible at every
    /// epoch, and released capacity is really reusable (the engine never
    /// admits less than a no-release engine... sanity: conservation only).
    #[test]
    fn churned_runs_keep_active_feasibility(
        (graph, requests, epsilon) in arb_scenario(),
        ttl in 1u32..3,
    ) {
        let config = EngineConfig {
            residual_floor: ResidualFloor::Permissive,
            carry_decay: 0.0,
            ..EngineConfig::with_epsilon(epsilon)
        };
        let mut engine = Engine::new(graph, config);
        for batch in requests.chunks(3) {
            let arrivals: Vec<Arrival> = batch
                .iter()
                .map(|&r| Arrival::with_ttl(r, ttl))
                .collect();
            engine.submit_batch(&arrivals);
            prop_assert!(engine
                .active_solution()
                .check_feasible(&engine.instance(), false)
                .is_ok());
        }
        // Everything admitted with a TTL eventually releases.
        let horizon = ttl as usize + 1;
        for _ in 0..horizon {
            engine.submit_batch(&[]);
        }
        let m = engine.metrics();
        prop_assert_eq!(m.released, m.accepted, "all TTL admissions must release");
        prop_assert!(engine.active_solution().is_empty());
    }

    /// Exact critical-value payments against the bisection oracle on
    /// every epoch of a churned, multi-epoch stream over a random network
    /// (carried weights, TTL releases, residual masks): the oracle
    /// re-runs each epoch's frozen context from scratch per probe, and
    /// brackets every exact payment within its tolerance.
    #[test]
    fn exact_payments_bracket_bisection_under_churn(
        (graph, requests, epsilon) in arb_scenario(),
        batches in 1usize..5,
        ttl in 1u32..4,
        decay in 0.0..=1.0f64,
    ) {
        let mut engine = Engine::new(graph, EngineConfig {
            carry_decay: decay,
            residual_floor: ResidualFloor::Permissive,
            ..EngineConfig::with_epsilon(epsilon).with_payments(PaymentPolicy::critical_value())
        });
        let chunk = requests.len().div_ceil(batches).max(1);
        for (i, batch) in requests.chunks(chunk).enumerate() {
            let arrivals: Vec<Arrival> = batch
                .iter()
                .enumerate()
                .map(|(j, &r)| if (i + j) % 2 == 0 {
                    Arrival::with_ttl(r, ttl)
                } else {
                    Arrival::permanent(r)
                })
                .collect();
            let (report, pairs) = common::epoch_with_oracle(&mut engine, &arrivals);
            prop_assert_eq!(pairs.len(), report.accepted);
            common::assert_brackets(&pairs, &format!("epoch {}", i + 1));
        }
    }

    /// The incremental selection loop and the fan-out reference produce
    /// bit-identical engines over whole churned streams (see
    /// [`assert_fan_out_reference_agrees`]).
    #[test]
    fn incremental_selection_bit_identical_across_churned_epochs(
        (graph, requests, epsilon) in arb_scenario(),
        batches in 1usize..5,
        ttl in 1u32..4,
        decay in 0.0..=1.0f64,
    ) {
        let config = EngineConfig {
            carry_decay: decay,
            residual_floor: ResidualFloor::Permissive,
            ..EngineConfig::with_epsilon(epsilon).with_payments(PaymentPolicy::critical_value())
        };
        let chunk = requests.len().div_ceil(batches).max(1);
        let stream: Vec<Vec<Arrival>> = requests
            .chunks(chunk)
            .enumerate()
            .map(|(i, batch)| {
                batch
                    .iter()
                    .enumerate()
                    .map(|(j, &r)| if (i + j) % 2 == 0 {
                        Arrival::with_ttl(r, ttl)
                    } else {
                        Arrival::permanent(r)
                    })
                    .collect()
            })
            .collect();
        assert_fan_out_reference_agrees(graph, config, &stream);
    }

    /// Regression: holding the graph behind a shared `Arc` (and keeping
    /// other references to it alive) changes **no** engine trace output —
    /// events, admissions, payments, and metrics counters are identical
    /// to an engine that owns its graph exclusively.
    #[test]
    fn shared_graph_leaves_engine_traces_unchanged(
        (graph, requests, epsilon) in arb_scenario(),
    ) {
        let config = || EngineConfig {
            events: ufp_engine::EventLevel::Request,
            ..EngineConfig::with_epsilon(epsilon)
                .with_payments(PaymentPolicy::critical_value())
        };
        // Exclusive: the engine owns the only copy of this graph.
        let mut exclusive = Engine::new(graph.clone(), config());
        // Shared: the same Arc is also held (and read) outside the engine
        // for the whole run.
        let shared_handle = std::sync::Arc::new(graph);
        let mut shared = Engine::from_shared(std::sync::Arc::clone(&shared_handle), config());
        for batch in requests.chunks(3) {
            exclusive.submit_requests(batch);
            shared.submit_requests(batch);
            // Outside reader keeps the Arc busy mid-run.
            prop_assert_eq!(shared_handle.num_edges(), shared.graph().num_edges());
        }
        prop_assert_eq!(exclusive.drain_events(), shared.drain_events());
        prop_assert_eq!(exclusive.admissions().len(), shared.admissions().len());
        for (a, b) in exclusive.admissions().iter().zip(shared.admissions()) {
            prop_assert_eq!(a.request, b.request);
            prop_assert_eq!(a.path.nodes(), b.path.nodes());
            prop_assert_eq!(a.payment.to_bits(), b.payment.to_bits());
        }
        prop_assert_eq!(exclusive.metrics().accepted, shared.metrics().accepted);
        prop_assert_eq!(exclusive.metrics().revenue.to_bits(), shared.metrics().revenue.to_bits());
        // And the shared engine's instance view points at the same graph
        // allocation — no hidden deep copy anywhere in the epoch path.
        prop_assert!(std::ptr::eq(shared.graph(), shared.instance().graph()));
    }

    /// Determinism: identical streams produce identical engines.
    #[test]
    fn replays_are_deterministic((graph, requests, epsilon) in arb_scenario()) {
        let run = || {
            let mut engine = Engine::new(
                graph.clone(),
                EngineConfig::with_epsilon(epsilon),
            );
            for batch in requests.chunks(4) {
                engine.submit_requests(batch);
            }
            engine
                .cumulative_solution()
                .routed
                .iter()
                .map(|(r, p)| (r.0, p.nodes().to_vec()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

/// Replay `stream` through an engine on the incremental selector and
/// through one on the fan-out reference ([`Engine::fan_out_reference`]):
/// every epoch report, admission path, critical-value payment and the
/// revenue counter must match bit for bit, including the shadowed
/// winner inside every exact pricing pass. Returns the incremental
/// engine.
fn assert_fan_out_reference_agrees(
    graph: Graph,
    config: EngineConfig,
    stream: &[Vec<Arrival>],
) -> Engine {
    let mut inc = Engine::new(graph.clone(), config.clone());
    let mut fan = Engine::new(graph, config).fan_out_reference();
    for (i, arrivals) in stream.iter().enumerate() {
        let ri = inc.submit_batch(arrivals);
        let rf = fan.submit_batch(arrivals);
        let epoch = i + 1;
        assert_eq!(
            ri.accepted, rf.accepted,
            "epoch {epoch} allocations diverged"
        );
        assert_eq!(ri.stop, rf.stop, "epoch {epoch} stop reasons diverged");
        assert_eq!(
            ri.revenue.to_bits(),
            rf.revenue.to_bits(),
            "epoch {epoch} revenue diverged: {} vs {}",
            ri.revenue,
            rf.revenue
        );
        assert_eq!(ri.min_residual.to_bits(), rf.min_residual.to_bits());
    }
    assert_eq!(inc.admissions().len(), fan.admissions().len());
    for (a, b) in inc.admissions().iter().zip(fan.admissions()) {
        assert_eq!(a.request, b.request);
        assert_eq!(a.path.nodes(), b.path.nodes());
        assert_eq!(a.released, b.released);
        assert_eq!(
            a.payment.to_bits(),
            b.payment.to_bits(),
            "payment diverged for {:?}: {} vs {}",
            a.request,
            a.payment,
            b.payment
        );
    }
    assert_eq!(
        inc.metrics().revenue.to_bits(),
        fan.metrics().revenue.to_bits()
    );
    inc
}

/// The churned, paid `engine_sim` trace (`--nodes 60 --edges 240 --eps
/// 0.7 --hotspots 2 --epochs 5 --mean 120 --churn 1,3 --payments
/// critical`, seed 7), rebuilt the way `engine_sim` builds it, as a
/// fixed input to the incremental == fan-out check.
#[test]
fn incremental_selection_bit_identical_on_the_churned_paid_sim_trace() {
    let (nodes, edges, epsilon, seed) = (60, 240, 0.7, 7);
    let b = required_b(edges, epsilon).ceil();
    let graph =
        generators::gnm_digraph(nodes, edges, (b, 2.0 * b), &mut StdRng::seed_from_u64(seed));
    let stream = arrival_trace(
        &graph,
        &ArrivalTraceConfig {
            epochs: 5,
            process: ArrivalProcess::Poisson { mean: 120.0 },
            hotspot_pairs: Some(2),
            demand_range: (0.2, 1.0),
            ttl_range: Some((1, 3)),
            seed,
            ..Default::default()
        },
    );
    let config = EngineConfig::with_epsilon(epsilon).with_payments(PaymentPolicy::critical_value());
    let engine = assert_fan_out_reference_agrees(graph, config, &stream);
    // The trace must reach what it is here for: contention that
    // charges winners, and TTL releases between epochs.
    let metrics = engine.metrics();
    assert!(metrics.revenue > 0.0, "no winner was charged");
    assert!(metrics.released > 0, "no admission was released");
}

/// Global request ids survive multi-epoch submission: the engine's
/// instance view must agree with the concatenated batches.
#[test]
fn global_ids_index_the_full_history() {
    let mut gb = ufp_netgraph::graph::GraphBuilder::directed(3);
    gb.add_edge(NodeId(0), NodeId(1), 50.0);
    gb.add_edge(NodeId(1), NodeId(2), 50.0);
    let mut engine = Engine::new(gb.build(), EngineConfig::with_epsilon(0.5));
    let batch1: Vec<Request> = (0..3)
        .map(|i| Request::new(NodeId(0), NodeId(1), 1.0, 1.0 + i as f64))
        .collect();
    let batch2: Vec<Request> = (0..2)
        .map(|i| Request::new(NodeId(1), NodeId(2), 1.0, 2.0 + i as f64))
        .collect();
    engine.submit_requests(&batch1);
    engine.submit_requests(&batch2);
    let instance = engine.instance();
    assert_eq!(instance.num_requests(), 5);
    assert_eq!(instance.request(RequestId(3)).src, NodeId(1));
    for adm in engine.admissions() {
        let req = instance.request(adm.request);
        assert_eq!(adm.path.source(), req.src);
        assert_eq!(adm.path.target(), req.dst);
    }
}

/// An epoch report's deterministic fields (all but the wall-clock
/// `elapsed`), as bits.
fn report_bits(r: &EpochReport) -> (Vec<u64>, ufp_core::StopReason) {
    let fields = vec![
        r.epoch,
        r.arrivals as u64,
        r.accepted as u64,
        r.rejected as u64,
        r.released as u64,
        r.value_admitted.to_bits(),
        r.revenue.to_bits(),
        r.min_residual.to_bits(),
        r.total_utilization.to_bits(),
    ];
    (fields, r.stop)
}

/// A parallel pool changes nothing: on a churned, paid fault trace, an
/// engine on `Pool::new(4)` matches one on `Pool::sequential()` after
/// every epoch — report, every admission's payment bits, and
/// `snapshot_bytes()`.
#[test]
fn parallel_pool_matches_sequential_on_a_churned_paid_fault_trace() {
    let (nodes, edges, epsilon, seed, epochs) = (80, 160, 0.8, 7, 12);
    let b = required_b(edges, epsilon).ceil();
    let graph =
        generators::gnm_digraph(nodes, edges, (b, 2.0 * b), &mut StdRng::seed_from_u64(seed));
    let stream = arrival_trace(
        &graph,
        &ArrivalTraceConfig {
            epochs,
            process: ArrivalProcess::Poisson { mean: 90.0 },
            hotspot_pairs: Some(4),
            demand_range: (0.2, 1.0),
            ttl_range: Some((1, 3)),
            seed,
            ..Default::default()
        },
    );
    let faults = failure_trace(
        &graph,
        &FailureTraceConfig {
            epochs: epochs as u32,
            seed: 99,
            flap_rate: 0.6,
            flap_down_epochs: 2,
            resize_rate: 0.4,
            resize_range: (0.3, 1.2),
            outage_rate: 0.1,
            outage_radius: 1,
            outage_down_epochs: 2,
            drains: vec![DrainWindow {
                node: NodeId(5),
                start: 5,
                duration: 3,
            }],
        },
    );
    let config = EngineConfig::with_epsilon(epsilon).with_payments(PaymentPolicy::critical_value());
    let mut seq = Engine::new(graph.clone(), config.clone().parallel(Pool::sequential()));
    let mut par = Engine::new(graph, config.parallel(Pool::new(4)));
    let step = |engine: &mut Engine, events: &[_], batch: &[Arrival]| {
        if !events.is_empty() {
            engine
                .apply_topology(events)
                .expect("generated trace applies");
        }
        let mut merged = engine.drain_readmissions();
        merged.extend(batch.iter().cloned());
        engine.submit_batch(&merged)
    };
    for (events, batch) in faults.iter().zip(&stream) {
        let rs = step(&mut seq, events, batch);
        let rp = step(&mut par, events, batch);
        let epoch = rs.epoch;
        assert_eq!(report_bits(&rs), report_bits(&rp), "epoch {epoch} report");
        let payments = |e: &Engine| -> Vec<u64> {
            e.admissions().iter().map(|a| a.payment.to_bits()).collect()
        };
        assert_eq!(payments(&seq), payments(&par), "epoch {epoch} payments");
        assert!(
            seq.snapshot_bytes() == par.snapshot_bytes(),
            "epoch {epoch} snapshot bytes diverged"
        );
    }
    // The trace must reach what it is here for: charged winners and
    // fault-driven evictions.
    let metrics = seq.metrics();
    assert!(metrics.revenue > 0.0, "no winner was charged");
    assert!(metrics.evicted > 0, "the fault trace evicted nothing");
}
