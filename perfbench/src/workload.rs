//! The canonical workloads: their parameters, input generation (graph,
//! partition, arrival trace, failure trace) and engine construction.
//!
//! Each workload's network and its hotspot pairs (where the traffic
//! concentrates) are fixed, generated from a constant graph seed, so that
//! runs with different `--seed`s measure the same deployment under
//! different traffic: the seed drives the arrival trace (counts, pair
//! choices, demands, values, TTLs) and the failure trace. The engine sees
//! only the generated inputs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ufp_core::{Request, StopReason};
use ufp_engine::{
    Admission, Arrival, Engine, EngineConfig, EngineEvent, EpochReport, EventLevel, HealthConfig,
    PaymentPolicy, TopologyError, TopologyEvent, TopologyReport,
};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::NodeId;
use ufp_netgraph::{bfs, generators};
use ufp_par::Pool;
use ufp_shard::{NodeBlocks, Partitioner, ShardConfig, ShardPlan, ShardedEngine};
use ufp_workloads::{failure_trace, poisson_count, required_b, FailureTraceConfig, ValueModel};

/// Sharded topology and traffic shape.
#[derive(Clone, Copy, Debug)]
pub struct Sharding {
    pub shards: usize,
    pub inter_edges: usize,
    pub cross_fraction: f64,
}

/// Failure-trace rates (see [`FailureTraceConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct Faults {
    pub flap_rate: f64,
    pub outage_rate: f64,
}

/// One workload's full parameter set.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub nodes: usize,
    pub edges: usize,
    pub epsilon: f64,
    pub hotspots: usize,
    /// Poisson mean arrivals per epoch.
    pub mean: f64,
    /// Epochs in one pass of the trace.
    pub epochs: usize,
    pub ttl: (u32, u32),
    pub payments: bool,
    pub sharding: Option<Sharding>,
    pub faults: Option<Faults>,
    /// Run the regret oracle every this many epochs (0 = never).
    pub regret_every: u64,
    /// Take an in-memory snapshot every this many epochs (0 = never).
    pub snapshot_every: usize,
}

/// Constant seed of every workload's network.
const GRAPH_SEED: u64 = 7;

/// Accuracy of the sampled regret oracle. At the engine's default (0.05)
/// one sample costs seconds and would dominate the workload's wall; at 0.2
/// it costs about as much as one contended epoch.
const ORACLE_EPSILON: f64 = 0.2;

/// `bulk_alloc` is not among the workloads of `BENCHMARK.json`: its epochs
/// take seconds each, so a run holds too few of them to be steady on a
/// shared 2-vCPU host, and its wall drifted by more than the bound between
/// sets of runs. It stays runnable by hand as the workload whose epoch is
/// all plan.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "paid_contended",
        nodes: 200,
        edges: 400,
        epsilon: 0.8,
        hotspots: 4,
        mean: 150.0,
        epochs: 120,
        ttl: (2, 4),
        payments: true,
        sharding: None,
        faults: None,
        regret_every: 0,
        snapshot_every: 0,
    },
    Spec {
        name: "bulk_alloc",
        nodes: 1000,
        edges: 5000,
        epsilon: 0.5,
        hotspots: 32,
        mean: 10_000.0,
        epochs: 15,
        ttl: (1, 2),
        payments: false,
        sharding: None,
        faults: None,
        regret_every: 0,
        snapshot_every: 0,
    },
    Spec {
        name: "sharded_faults",
        nodes: 200,
        edges: 600,
        epsilon: 0.8,
        hotspots: 4,
        mean: 70.0,
        epochs: 120,
        ttl: (2, 4),
        payments: true,
        sharding: Some(Sharding {
            shards: 4,
            inter_edges: 40,
            cross_fraction: 0.2,
        }),
        faults: Some(Faults {
            flap_rate: 0.5,
            outage_rate: 0.1,
        }),
        regret_every: 20,
        snapshot_every: 10,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// SplitMix64 finalizer: independent sub-seeds from one workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything a replay needs besides the engine.
pub struct Inputs {
    pub graph: Arc<Graph>,
    pub plan: Option<ShardPlan>,
    pub arrivals: Vec<Vec<Arrival>>,
    /// One topology batch per epoch (empty without faults).
    pub failures: Vec<Vec<TopologyEvent>>,
}

/// Draw `k` connected `(src, dst)` pairs, the source from `sources` and
/// the destination among the nodes reachable from it that `keep` admits.
fn hotspot_pool(
    graph: &Graph,
    sources: &[u32],
    k: usize,
    keep: impl Fn(u32, u32) -> bool,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId)> {
    let mut pool = Vec::with_capacity(k);
    for _ in 0..100_000 {
        if pool.len() == k {
            return pool;
        }
        let src = sources[rng.random_range(0..sources.len())];
        let reachable: Vec<u32> = bfs::hop_distances(graph, NodeId(src))
            .into_iter()
            .enumerate()
            .filter(|&(v, d)| d != usize::MAX && v as u32 != src && keep(src, v as u32))
            .map(|(v, _)| v as u32)
            .collect();
        if !reachable.is_empty() {
            let dst = reachable[rng.random_range(0..reachable.len())];
            pool.push((NodeId(src), NodeId(dst)));
        }
    }
    panic!("the workload graph cannot supply {k} connected hotspot pairs");
}

/// Poisson arrivals per epoch, each on a pair drawn uniformly from one
/// of `pools` (picked by `pick_pool`), with uniform demand in
/// `[0.2, 1]`, uniform value in `[0.5, 2]` and uniform TTL in `spec.ttl`.
fn arrival_trace(
    spec: &Spec,
    pools: &[Vec<(NodeId, NodeId)>],
    mut pick_pool: impl FnMut(&mut StdRng) -> usize,
    seed: u64,
) -> Vec<Vec<Arrival>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let values = ValueModel::Uniform(0.5, 2.0);
    (0..spec.epochs)
        .map(|_| {
            let count = poisson_count(spec.mean, &mut rng);
            (0..count)
                .map(|_| {
                    let pool = &pools[pick_pool(&mut rng)];
                    let (src, dst) = pool[rng.random_range(0..pool.len())];
                    let demand = rng.random_range(0.2..=1.0);
                    let value = values.sample_value(demand, &mut rng);
                    let ttl = rng.random_range(spec.ttl.0..=spec.ttl.1);
                    Arrival::with_ttl(Request::new(src, dst, demand, value), ttl)
                })
                .collect()
        })
        .collect()
}

/// Generate a workload's inputs from its seed. The network and its
/// hotspot pairs come from [`GRAPH_SEED`]; the arrivals and the failures
/// from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let b = required_b(spec.edges, spec.epsilon).ceil();
    let mut graph_rng = StdRng::seed_from_u64(GRAPH_SEED);
    let arrival_seed = mix(seed, 1);
    let (graph, plan, arrivals) = match spec.sharding {
        None => {
            let graph =
                generators::gnm_digraph(spec.nodes, spec.edges, (b, 2.0 * b), &mut graph_rng);
            let nodes: Vec<u32> = (0..graph.num_nodes() as u32).collect();
            let pool = hotspot_pool(&graph, &nodes, spec.hotspots, |_, _| true, &mut graph_rng);
            let arrivals = arrival_trace(spec, &[pool], |_| 0, arrival_seed);
            (graph, None, arrivals)
        }
        Some(sh) => {
            let k = sh.shards;
            let graph = generators::community_digraph(
                k,
                spec.nodes / k,
                spec.edges / k,
                sh.inter_edges,
                (b, 2.0 * b),
                (b, 2.0 * b),
                &mut graph_rng,
            );
            let plan = NodeBlocks.partition(&graph, k);
            let shard = plan.node_shard().to_vec();
            let per_shard = (spec.hotspots / k).max(1);
            // One pool of intra-shard pairs per shard, then the pool of
            // cross-shard pairs.
            let mut pools: Vec<Vec<(NodeId, NodeId)>> = (0..k as u32)
                .map(|s| {
                    let members: Vec<u32> = (0..graph.num_nodes() as u32)
                        .filter(|&v| shard[v as usize] == s)
                        .collect();
                    let same = |a: u32, b: u32| shard[a as usize] == shard[b as usize];
                    hotspot_pool(&graph, &members, per_shard, same, &mut graph_rng)
                })
                .collect();
            let nodes: Vec<u32> = (0..graph.num_nodes() as u32).collect();
            let cross = |a: u32, b: u32| shard[a as usize] != shard[b as usize];
            pools.push(hotspot_pool(
                &graph,
                &nodes,
                per_shard,
                cross,
                &mut graph_rng,
            ));
            let pick = |rng: &mut StdRng| {
                if rng.random_range(0.0..1.0) < sh.cross_fraction {
                    k
                } else {
                    rng.random_range(0..k)
                }
            };
            let arrivals = arrival_trace(spec, &pools, pick, arrival_seed);
            (graph, Some(plan), arrivals)
        }
    };
    let failures = match spec.faults {
        None => Vec::new(),
        Some(f) => failure_trace(
            &graph,
            &FailureTraceConfig {
                epochs: spec.epochs as u32,
                seed: mix(seed, 2),
                flap_rate: f.flap_rate,
                outage_rate: f.outage_rate,
                ..FailureTraceConfig::default()
            },
        ),
    };
    Inputs {
        graph: Arc::new(graph),
        plan,
        arrivals,
        failures,
    }
}

/// The deployment under test: one engine, or a sharded one.
pub enum Deployment {
    Single(Box<Engine>),
    Sharded(Box<ShardedEngine>),
}

/// Build a fresh deployment at epoch 0 for `inputs`.
pub fn deploy(spec: &Spec, inputs: &Inputs, threads: usize, obs: &ufp_obs::Recorder) -> Deployment {
    let config = engine_config(spec, threads, obs);
    match &inputs.plan {
        Some(plan) => Deployment::Sharded(Box::new(ShardedEngine::new(
            Arc::clone(&inputs.graph),
            plan.clone(),
            ShardConfig {
                engine: config,
                ..ShardConfig::default()
            },
        ))),
        None => Deployment::Single(Box::new(Engine::from_shared(
            Arc::clone(&inputs.graph),
            config,
        ))),
    }
}

fn engine_config(spec: &Spec, threads: usize, obs: &ufp_obs::Recorder) -> EngineConfig {
    EngineConfig {
        events: EventLevel::Epoch,
        payments: if spec.payments {
            PaymentPolicy::critical_value()
        } else {
            PaymentPolicy::None
        },
        obs: obs.clone(),
        health: HealthConfig {
            regret_every: spec.regret_every,
            regret_epsilon: ORACLE_EPSILON,
            ..HealthConfig::default()
        },
        ..EngineConfig::with_epsilon(spec.epsilon).parallel(Pool::new(threads))
    }
}

impl Deployment {
    pub fn submit_batch(&mut self, batch: &[Arrival]) -> EpochReport {
        match self {
            Deployment::Single(e) => e.submit_batch(batch),
            Deployment::Sharded(e) => e.submit_batch(batch),
        }
    }

    pub fn apply_topology(
        &mut self,
        events: &[TopologyEvent],
    ) -> Result<TopologyReport, TopologyError> {
        match self {
            Deployment::Single(e) => e.apply_topology(events),
            Deployment::Sharded(e) => e.apply_topology(events),
        }
    }

    pub fn drain_readmissions(&mut self) -> Vec<Arrival> {
        match self {
            Deployment::Single(e) => e.drain_readmissions(),
            Deployment::Sharded(e) => e.drain_readmissions(),
        }
    }

    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        match self {
            Deployment::Single(e) => e.drain_events(),
            Deployment::Sharded(e) => e.drain_events(),
        }
    }

    pub fn num_admissions(&self) -> usize {
        match self {
            Deployment::Single(e) => e.admissions().len(),
            Deployment::Sharded(e) => e.num_admissions(),
        }
    }

    pub fn admission(&self, i: usize) -> Admission {
        match self {
            Deployment::Single(e) => e.admissions()[i].clone(),
            Deployment::Sharded(e) => e.admission(i),
        }
    }

    pub fn requests(&self) -> &[Request] {
        match self {
            Deployment::Single(e) => e.requests(),
            Deployment::Sharded(e) => e.requests(),
        }
    }

    pub fn verify_active_feasibility(&self) -> Result<(), String> {
        match self {
            Deployment::Single(e) => e.verify_active_feasibility(),
            Deployment::Sharded(e) => e.verify_active_feasibility(),
        }
    }

    /// Σ refunds paid by topology repairs so far.
    pub fn refunded(&self) -> f64 {
        match self {
            Deployment::Single(e) => e.metrics().refunded,
            Deployment::Sharded(e) => e.metrics().refunded,
        }
    }

    /// Restore a deployment of the same shape from `bytes`.
    pub fn restore_from_bytes(&self, bytes: &[u8], inputs: &Inputs) -> Result<Deployment, String> {
        let graph = Arc::clone(&inputs.graph);
        match self {
            Deployment::Single(e) => Engine::restore_from_bytes(bytes, graph, e.config().clone())
                .map(|e| Deployment::Single(Box::new(e))),
            Deployment::Sharded(e) => ShardedEngine::restore_from_bytes(
                bytes,
                graph,
                e.partition().clone(),
                e.config().clone(),
            )
            .map(|e| Deployment::Sharded(Box::new(e))),
        }
        .map_err(|e| format!("restore refused: {e}"))
    }

    pub fn snapshot_bytes(&self) -> Vec<u8> {
        match self {
            Deployment::Single(e) => e.snapshot_bytes(),
            Deployment::Sharded(e) => e.snapshot_bytes(),
        }
    }
}

/// One-letter code of a stop reason in reference files.
pub fn stop_code(stop: StopReason) -> char {
    match stop {
        StopReason::Exhausted => 'E',
        StopReason::Guard => 'G',
        StopReason::NoPath => 'N',
        StopReason::IterationCap => 'C',
    }
}
