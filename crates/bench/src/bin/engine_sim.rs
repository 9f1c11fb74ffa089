//! `engine_sim` — trace-replay driver for the streaming admission-control
//! engine.
//!
//! Generates a deterministic arrival trace (Poisson by default; diurnal /
//! flash-crowd / churn variants via flags), replays it through
//! [`ufp_engine::Engine`] on a random `G(n, m)` network, and prints a
//! summary table. Everything written to **stdout** is a deterministic
//! function of the flags (two runs with the same seed are byte-identical);
//! wall-clock figures (latency percentiles, throughput) go to stderr.
//! Exception: under `--json` the emitted document carries a `"timing"`
//! object (total wall-clock, latency percentiles, throughput) that is
//! explicitly *not* deterministic — strip it before byte-comparing runs.
//!
//! Payments: `--payments critical` prices every admission at its exact
//! critical value (one resumed pass per winner).
//!
//! Selection: each epoch's argmin comes from the route-class path cache
//! and lazy score heap; there is no selection flag. Its bit-identity to
//! the paper-literal fan-out is a test contract (the engine proptests
//! replay this driver's churned paid trace through both loops), and
//! `BENCH_PR4.json` (history) records the speedups.
//!
//! Observability: `--trace-out FILE` (span JSONL), `--trace-chrome
//! FILE` (chrome://tracing), `--metrics-out FILE` (registry + epoch
//! profiles), and `--profile` (per-epoch phase breakdown inside the
//! `"timing"` object) all enable the `ufp_obs` recorder. Strictly
//! out-of-band: the deterministic stdout document is byte-identical
//! with tracing on or off (CI enforces the diff), and exports go to
//! side files only.
//!
//! Auction health: `--regret-every K` runs the out-of-band regret
//! oracle every K-th epoch (online value vs the offline fractional
//! optimum of the same frozen epoch snapshot), `--slo-us T` accounts
//! per-epoch admission latency against an SLO threshold, and
//! `--health-out FILE` writes the whole registry — health gauges,
//! regret samples, alerts — as Prometheus text exposition (and enables
//! the starvation / eviction-storm watermarks). All three enable the
//! recorder and are byte-invisible to the deterministic stdout document
//! (same CI contract as tracing); under `--profile`, each epoch's
//! stderr line additionally carries its regret verdict and any repair
//! phases (`topology.apply` / `repair.evict` / `repair.readmit`).
//!
//! Durability: `--snapshot-every K --snapshot-dir DIR` persists the
//! engine every `K` epochs; `--stop-after J` aborts the replay after
//! epoch `J` (a simulated crash — snapshots already on disk survive);
//! `--restore-from DIR` recovers from the newest loadable snapshot,
//! verifies the driver fingerprint (same trace flags, same seed), and
//! replays only the epochs after the snapshot's watermark. A
//! crash-and-restore run's deterministic output (`--json` minus the
//! `"timing"` object) is **byte-identical** to the unbroken run's.
//!
//! Failure injection: `--fail-trace SEED` generates a deterministic
//! per-epoch [`TopologyEvent`] stream (`--flap-rate` independent link
//! flaps, `--resize-rate` capacity rescales, `--outage-rate` correlated
//! regional outages, repeatable `--drain NODE,START,DURATION` planned
//! maintenance windows) and applies each epoch's batch through the
//! engine's repair pass before that epoch's arrivals: evictions are
//! priced and refunded through the event log, and re-admission
//! candidates rejoin the arrival stream ahead of the next scheduled
//! batch. The snapshot's own topology event log is the restore-time
//! authority: a snapshot whose log is an ancestor of the regenerated
//! trace is migrated forward (typed migration, reported on stderr); a
//! divergent log is refused with the typed `GraphMismatch` error and a
//! nonzero exit code.
//!
//! ```text
//! cargo run -p ufp-bench --release --bin engine_sim
//! cargo run -p ufp-bench --release --bin engine_sim -- \
//!     --nodes 1000 --edges 5000 --epochs 200 --mean 550 --seed 7 \
//!     --process diurnal --churn 20,60 --payments critical --json
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ufp_bench::table::{f2, Table};
use ufp_core::StopReason;
use ufp_engine::codec::{CodecError, Fnv64, Reader, Writer};
use ufp_engine::{
    Arrival, Engine, EngineConfig, EpochReport, EventLevel, PaymentPolicy, SnapshotStore, Topology,
    TopologyError, TopologyEvent, TopologyReport,
};
use ufp_netgraph::generators;
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::NodeId;
use ufp_par::Pool;
use ufp_shard::{EdgeCut, NodeBlocks, Partitioner, ShardConfig, ShardStats, ShardedEngine};
use ufp_workloads::arrivals::{arrival_trace, ArrivalProcess, ArrivalTraceConfig};
use ufp_workloads::failures::{failure_trace, DrainWindow, FailureTraceConfig};
use ufp_workloads::random_ufp::required_b;
use ufp_workloads::sharded::{block_shard_map, sharded_arrival_trace, ShardedTraceConfig};

struct Options {
    nodes: usize,
    edges: usize,
    epochs: usize,
    mean: f64,
    hotspots: usize,
    epsilon: f64,
    seed: u64,
    process: String,
    churn: Option<(u32, u32)>,
    payments: String,
    json: bool,
    threads: usize,
    snapshot_every: Option<usize>,
    snapshot_dir: Option<String>,
    restore_from: Option<String>,
    stop_after: Option<usize>,
    shards: usize,
    partitioner: String,
    communities: usize,
    inter_edges: usize,
    cross_fraction: f64,
    cross_unroutable: bool,
    lease_fraction: f64,
    trace_out: Option<String>,
    trace_chrome: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
    fail_seed: Option<u64>,
    flap_rate: f64,
    resize_rate: f64,
    outage_rate: f64,
    outage_radius: u32,
    drains: Vec<DrainWindow>,
    health_out: Option<String>,
    regret_every: u64,
    slo_us: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            nodes: 1000,
            edges: 5000,
            epochs: 200,
            mean: 550.0,
            hotspots: 32,
            epsilon: 0.5,
            seed: 7,
            process: "poisson".to_string(),
            churn: None,
            payments: "none".to_string(),
            json: false,
            threads: 1,
            snapshot_every: None,
            snapshot_dir: None,
            restore_from: None,
            stop_after: None,
            shards: 1,
            partitioner: "blocks".to_string(),
            communities: 0,
            inter_edges: 0,
            cross_fraction: 0.0,
            cross_unroutable: false,
            lease_fraction: 0.5,
            trace_out: None,
            trace_chrome: None,
            metrics_out: None,
            profile: false,
            fail_seed: None,
            flap_rate: 0.0,
            resize_rate: 0.0,
            outage_rate: 0.0,
            outage_radius: 1,
            drains: Vec::new(),
            health_out: None,
            regret_every: 0,
            slo_us: 0,
        }
    }
}

/// The replay target: a single engine or a sharded one. A sharded
/// deployment keeps all of its state in one book engine, so every
/// read-out goes through [`Sim::book`]; only the calls that run epochs
/// or repairs, and the per-shard counters, dispatch on the variant.
enum Sim {
    Single(Box<Engine>),
    Sharded(Box<ShardedEngine>),
}

impl Sim {
    fn book(&self) -> &Engine {
        match self {
            Sim::Single(e) => e,
            Sim::Sharded(e) => e.engine(),
        }
    }

    fn submit_batch(&mut self, batch: &[Arrival]) -> EpochReport {
        match self {
            Sim::Single(e) => e.submit_batch(batch),
            Sim::Sharded(e) => e.submit_batch(batch),
        }
    }

    fn apply_topology(
        &mut self,
        events: &[TopologyEvent],
    ) -> Result<TopologyReport, TopologyError> {
        match self {
            Sim::Single(e) => e.apply_topology(events),
            Sim::Sharded(e) => e.apply_topology(events),
        }
    }

    fn drain_readmissions(&mut self) -> Vec<Arrival> {
        match self {
            Sim::Single(e) => e.drain_readmissions(),
            Sim::Sharded(e) => e.drain_readmissions(),
        }
    }

    fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        match self {
            Sim::Single(_) => None,
            Sim::Sharded(e) => Some(e.shard_stats()),
        }
    }
}

/// Feasibility verdict of the active (and, when asked, the cumulative)
/// admissions. On a mutated topology the base-capacity instance no
/// longer describes the network: audit the active admissions against
/// the *effective* capacities instead, and skip the cumulative check
/// (evictions release capacity, like churn).
fn feasibility(book: &Engine, check_cumulative: bool) -> (bool, Option<bool>) {
    if !book.topology().is_pristine() {
        return (book.verify_active_feasibility().is_ok(), None);
    }
    let instance = book.instance();
    let active_ok = book
        .active_solution()
        .check_feasible(&instance, false)
        .is_ok();
    let cumulative_ok = check_cumulative.then(|| {
        book.cumulative_solution()
            .check_feasible(&instance, false)
            .is_ok()
    });
    (active_ok, cumulative_ok)
}

/// Version tag of the driver blob carried in the snapshot's driver
/// section (bumped independently of the engine codec version).
/// v2: community/cross-traffic trace flags joined the fingerprint.
/// v3: the unroutable-cross sampling mode joined (it changes the trace).
/// v4: dynamic-topology runs (engine codec v2). The failure-trace flags
/// are deliberately *not* part of the blob: the snapshot's own topology
/// event log is the restore-time authority, checked against the
/// regenerated trace by [`Engine::migrate_to`]'s ancestor test on the
/// restored engine (divergence is the typed `GraphMismatch`; a shorter
/// stored log is migrated forward explicitly). Only single-engine runs
/// write this blob: a sharded book's driver section holds its shard
/// planner's state instead.
const DRIVER_VERSION: u8 = 4;

/// Digest of the full arrival trace: proof that a restore run's flags
/// regenerate byte-for-byte the stream the snapshot was taken from. The
/// trace *is* the RNG stream here (everything random in the simulation
/// is sampled into it up front), so digest + epoch watermark pin the
/// exact stream position a restored run resumes from.
fn trace_digest(trace: &[Vec<Arrival>]) -> u64 {
    let mut h = Fnv64::default();
    for batch in trace {
        h.write(&(batch.len() as u64).to_le_bytes());
        for a in batch {
            h.write(&a.request.src.0.to_le_bytes());
            h.write(&a.request.dst.0.to_le_bytes());
            h.write(&a.request.demand.to_bits().to_le_bytes());
            h.write(&a.request.value.to_bits().to_le_bytes());
            h.write(&a.ttl.map_or(u64::MAX, u64::from).to_le_bytes());
        }
    }
    h.finish()
}

/// Wall-clock read-outs over the epochs this process replayed, taken
/// from their [`EpochReport::elapsed`] (a restored run's pre-restore
/// epochs are not included). Not deterministic: reported only under
/// `"timing"` and on stderr.
struct EpochTiming {
    p50_us: u64,
    p99_us: u64,
    /// Arrivals per second of epoch wall time (0 before any epoch).
    requests_per_s: f64,
}

impl EpochTiming {
    fn of(mut epoch_us: Vec<u64>, arrivals: u64) -> Self {
        epoch_us.sort_unstable();
        let percentile = |p: f64| match epoch_us.len() {
            0 => 0,
            n => epoch_us[(p / 100.0 * (n - 1) as f64).round() as usize],
        };
        let total_us: u64 = epoch_us.iter().sum();
        EpochTiming {
            p50_us: percentile(50.0),
            p99_us: percentile(99.0),
            requests_per_s: if total_us == 0 {
                0.0
            } else {
                arrivals as f64 / (total_us as f64 / 1e6)
            },
        }
    }
}

/// Render one JSON object per completed epoch profile: wall-clock µs,
/// the epoch-stage coverage ratio (open+plan+commit over wall), and
/// every phase that saw activity in the epoch.
fn profile_rows(snap: &ufp_obs::ObsSnapshot) -> Vec<String> {
    snap.profiles
        .iter()
        .map(|p| {
            let phases: Vec<String> = ufp_obs::Phase::ALL
                .iter()
                .filter(|ph| p.phase_hits[ph.index()] > 0)
                .map(|ph| {
                    format!(
                        "\"{}\": {{\"us\": {}, \"hits\": {}}}",
                        ph.name(),
                        p.phase_ns[ph.index()] / 1_000,
                        p.phase_hits[ph.index()]
                    )
                })
                .collect();
            format!(
                "{{\"epoch\": {}, \"wall_us\": {}, \"coverage\": {:.3}, \"phases\": {{{}}}}}",
                p.epoch,
                p.wall_ns / 1_000,
                p.coverage(),
                phases.join(", ")
            )
        })
        .collect()
}

/// Serialize the simulation's own recovery state: the trace fingerprint
/// plus the per-stop-reason counters accumulated so far (everything the
/// engine snapshot cannot know about the driver).
fn encode_driver(options: &Options, digest: u64, stop_counts: &[usize; 4]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(DRIVER_VERSION);
    w.put_u64(options.nodes as u64);
    w.put_u64(options.edges as u64);
    w.put_u64(options.epochs as u64);
    w.put_f64(options.mean);
    w.put_u64(options.hotspots as u64);
    w.put_f64(options.epsilon);
    w.put_u64(options.seed);
    w.put_str(&options.process);
    match options.churn {
        None => w.put_bool(false),
        Some((lo, hi)) => {
            w.put_bool(true);
            w.put_u32(lo);
            w.put_u32(hi);
        }
    }
    w.put_u64(options.communities as u64);
    w.put_u64(options.inter_edges as u64);
    w.put_f64(options.cross_fraction);
    w.put_bool(options.cross_unroutable);
    w.put_u64(digest);
    for &c in stop_counts {
        w.put_u64(c as u64);
    }
    w.into_bytes()
}

/// Decode and verify a driver blob against the current run's flags and
/// regenerated trace. Returns the snapshotted stop counters.
fn decode_driver(bytes: &[u8], options: &Options, digest: u64) -> Result<[usize; 4], String> {
    let fail = |what: &str| format!("snapshot was taken from a different simulation ({what})");
    let mut r = Reader::new(bytes);
    let err = |e: CodecError| e.to_string();
    if r.get_u8("driver version").map_err(err)? != DRIVER_VERSION {
        return Err(fail("driver blob version"));
    }
    if r.get_u64("driver nodes").map_err(err)? != options.nodes as u64 {
        return Err(fail("--nodes"));
    }
    if r.get_u64("driver edges").map_err(err)? != options.edges as u64 {
        return Err(fail("--edges"));
    }
    if r.get_u64("driver epochs").map_err(err)? != options.epochs as u64 {
        return Err(fail("--epochs"));
    }
    if r.get_f64("driver mean").map_err(err)?.to_bits() != options.mean.to_bits() {
        return Err(fail("--mean"));
    }
    if r.get_u64("driver hotspots").map_err(err)? != options.hotspots as u64 {
        return Err(fail("--hotspots"));
    }
    if r.get_f64("driver eps").map_err(err)?.to_bits() != options.epsilon.to_bits() {
        return Err(fail("--eps"));
    }
    if r.get_u64("driver seed").map_err(err)? != options.seed {
        return Err(fail("--seed"));
    }
    if r.get_str("driver process").map_err(err)? != options.process {
        return Err(fail("--process"));
    }
    let churn = if r.get_bool("driver churn flag").map_err(err)? {
        Some((
            r.get_u32("driver churn lo").map_err(err)?,
            r.get_u32("driver churn hi").map_err(err)?,
        ))
    } else {
        None
    };
    if churn != options.churn {
        return Err(fail("--churn"));
    }
    if r.get_u64("driver communities").map_err(err)? != options.communities as u64 {
        return Err(fail("--communities"));
    }
    if r.get_u64("driver inter edges").map_err(err)? != options.inter_edges as u64 {
        return Err(fail("--inter-edges"));
    }
    if r.get_f64("driver cross fraction").map_err(err)?.to_bits()
        != options.cross_fraction.to_bits()
    {
        return Err(fail("--cross-fraction"));
    }
    if r.get_bool("driver cross unroutable").map_err(err)? != options.cross_unroutable {
        return Err(fail("--cross-unroutable"));
    }
    if r.get_u64("driver trace digest").map_err(err)? != digest {
        return Err(fail("arrival-trace digest"));
    }
    let mut stop_counts = [0usize; 4];
    for c in &mut stop_counts {
        *c = r.get_u64("driver stop counts").map_err(err)? as usize;
    }
    r.expect_exhausted().map_err(err)?;
    Ok(stop_counts)
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--nodes" => options.nodes = value("--nodes")?.parse().map_err(|e| format!("{e}"))?,
            "--edges" => options.edges = value("--edges")?.parse().map_err(|e| format!("{e}"))?,
            "--epochs" => {
                options.epochs = value("--epochs")?.parse().map_err(|e| format!("{e}"))?
            }
            "--mean" => options.mean = value("--mean")?.parse().map_err(|e| format!("{e}"))?,
            "--hotspots" => {
                options.hotspots = value("--hotspots")?.parse().map_err(|e| format!("{e}"))?
            }
            "--eps" => options.epsilon = value("--eps")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => options.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--process" => options.process = value("--process")?,
            "--payments" => options.payments = value("--payments")?,
            "--json" => options.json = true,
            "--threads" => {
                options.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?
            }
            "--churn" => {
                let spec = value("--churn")?;
                let (lo, hi) = spec
                    .split_once(',')
                    .ok_or_else(|| format!("--churn wants lo,hi, got {spec}"))?;
                options.churn = Some((
                    lo.parse().map_err(|e| format!("{e}"))?,
                    hi.parse().map_err(|e| format!("{e}"))?,
                ));
            }
            "--snapshot-every" => {
                let k: usize = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if k == 0 {
                    return Err("--snapshot-every must be at least 1".to_string());
                }
                options.snapshot_every = Some(k);
            }
            "--snapshot-dir" => options.snapshot_dir = Some(value("--snapshot-dir")?),
            "--restore-from" => options.restore_from = Some(value("--restore-from")?),
            "--stop-after" => {
                let j: usize = value("--stop-after")?.parse().map_err(|e| format!("{e}"))?;
                if j == 0 {
                    return Err("--stop-after must be at least 1".to_string());
                }
                options.stop_after = Some(j);
            }
            "--shards" => {
                options.shards = value("--shards")?.parse().map_err(|e| format!("{e}"))?;
                if options.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--partitioner" => options.partitioner = value("--partitioner")?,
            "--communities" => {
                options.communities = value("--communities")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--inter-edges" => {
                options.inter_edges = value("--inter-edges")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--cross-fraction" => {
                options.cross_fraction = value("--cross-fraction")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if !(0.0..=1.0).contains(&options.cross_fraction) {
                    return Err("--cross-fraction must lie in [0, 1]".to_string());
                }
            }
            "--cross-unroutable" => options.cross_unroutable = true,
            "--lease-fraction" => {
                options.lease_fraction = value("--lease-fraction")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if !(0.0..=1.0).contains(&options.lease_fraction) {
                    return Err("--lease-fraction must lie in [0, 1]".to_string());
                }
            }
            "--fail-trace" => {
                options.fail_seed =
                    Some(value("--fail-trace")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--flap-rate" => {
                options.flap_rate = value("--flap-rate")?.parse().map_err(|e| format!("{e}"))?;
                if !(options.flap_rate >= 0.0 && options.flap_rate.is_finite()) {
                    return Err("--flap-rate must be finite and non-negative".to_string());
                }
            }
            "--resize-rate" => {
                options.resize_rate = value("--resize-rate")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if !(options.resize_rate >= 0.0 && options.resize_rate.is_finite()) {
                    return Err("--resize-rate must be finite and non-negative".to_string());
                }
            }
            "--outage-rate" => {
                options.outage_rate = value("--outage-rate")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if !(0.0..=1.0).contains(&options.outage_rate) {
                    return Err("--outage-rate must lie in [0, 1]".to_string());
                }
            }
            "--drain" => {
                let spec = value("--drain")?;
                let parts: Vec<&str> = spec.split(',').collect();
                let [node, start, duration] = parts[..] else {
                    return Err(format!("--drain wants node,start,duration, got {spec}"));
                };
                let window = DrainWindow {
                    node: NodeId(node.parse().map_err(|e| format!("{e}"))?),
                    start: start.parse().map_err(|e| format!("{e}"))?,
                    duration: duration.parse().map_err(|e| format!("{e}"))?,
                };
                if window.duration == 0 {
                    return Err("--drain duration must be at least 1".to_string());
                }
                options.drains.push(window);
            }
            "--outage-radius" => {
                options.outage_radius = value("--outage-radius")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if options.outage_radius == 0 {
                    return Err("--outage-radius must be at least 1".to_string());
                }
            }
            "--trace-out" => options.trace_out = Some(value("--trace-out")?),
            "--trace-chrome" => options.trace_chrome = Some(value("--trace-chrome")?),
            "--metrics-out" => options.metrics_out = Some(value("--metrics-out")?),
            "--profile" => options.profile = true,
            "--health-out" => options.health_out = Some(value("--health-out")?),
            "--regret-every" => {
                options.regret_every = value("--regret-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--slo-us" => {
                options.slo_us = value("--slo-us")?.parse().map_err(|e| format!("{e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if options.fail_seed.is_none()
        && (options.flap_rate > 0.0
            || options.resize_rate > 0.0
            || options.outage_rate > 0.0
            || options.outage_radius != 1
            || !options.drains.is_empty())
    {
        return Err(
            "--flap-rate / --resize-rate / --outage-rate / --outage-radius / --drain \
             require --fail-trace"
                .to_string(),
        );
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("engine_sim: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Network: random digraph in the large-capacity regime for the
    // chosen ε — one connected G(n, m) by default, or a
    // community-structured digraph (`--communities K`, optionally with
    // `--inter-edges` cross links) for sharded scenarios.
    let b = required_b(options.edges, options.epsilon).ceil();
    let mut graph_rng = StdRng::seed_from_u64(options.seed);
    let graph: Graph = if options.communities > 0 {
        let k = options.communities;
        if options.nodes < 2 * k {
            eprintln!(
                "engine_sim: --communities {k} needs at least {} nodes",
                2 * k
            );
            return ExitCode::FAILURE;
        }
        generators::community_digraph(
            k,
            options.nodes / k,
            options.edges / k,
            options.inter_edges,
            (b, 2.0 * b),
            (b, 2.0 * b),
            &mut graph_rng,
        )
    } else {
        if options.cross_fraction > 0.0 || options.inter_edges > 0 || options.cross_unroutable {
            eprintln!(
                "engine_sim: --cross-fraction / --inter-edges / --cross-unroutable \
                 require --communities"
            );
            return ExitCode::FAILURE;
        }
        generators::gnm_digraph(options.nodes, options.edges, (b, 2.0 * b), &mut graph_rng)
    };

    let process = match options.process.as_str() {
        "poisson" => ArrivalProcess::Poisson { mean: options.mean },
        "diurnal" => ArrivalProcess::Diurnal {
            mean: options.mean,
            amplitude: 0.6,
            period: 24,
        },
        "flash" => ArrivalProcess::FlashCrowd {
            base: options.mean,
            spike: 4.0 * options.mean,
            at: (options.epochs / 2) as u32,
            width: 5,
        },
        other => {
            eprintln!("engine_sim: unknown process {other} (poisson|diurnal|flash)");
            return ExitCode::FAILURE;
        }
    };
    let trace = if options.communities > 0 {
        // Community-local traffic with a tunable cross fraction; the
        // trace depends on the communities, not on --shards, so sharded
        // and single replays see the byte-identical stream.
        let labels = block_shard_map(graph.num_nodes(), options.communities);
        sharded_arrival_trace(
            &graph,
            &labels,
            &ShardedTraceConfig {
                epochs: options.epochs,
                process,
                cross_fraction: options.cross_fraction,
                hotspot_pairs: Some((options.hotspots / options.communities).max(1)),
                demand_range: (0.2, 1.0),
                ttl_range: options.churn,
                allow_unroutable_cross: options.cross_unroutable,
                seed: options.seed,
                ..Default::default()
            },
        )
    } else {
        arrival_trace(
            &graph,
            &ArrivalTraceConfig {
                epochs: options.epochs,
                process,
                hotspot_pairs: Some(options.hotspots),
                demand_range: (0.2, 1.0),
                ttl_range: options.churn,
                seed: options.seed,
                ..Default::default()
            },
        )
    };
    let total_requests: usize = trace.iter().map(Vec::len).sum();

    // Infrastructure-side trace: one TopologyEvent batch per epoch,
    // deterministic in its own seed so demand and failures can vary
    // independently. Empty when failure injection is off.
    let fail_trace: Vec<Vec<TopologyEvent>> = match options.fail_seed {
        None => Vec::new(),
        Some(seed) => failure_trace(
            &graph,
            &FailureTraceConfig {
                epochs: options.epochs as u32,
                seed,
                flap_rate: options.flap_rate,
                resize_rate: options.resize_rate,
                outage_rate: options.outage_rate,
                outage_radius: options.outage_radius,
                drains: options.drains.clone(),
                ..FailureTraceConfig::default()
            },
        ),
    };
    let total_topology_events: usize = fail_trace.iter().map(Vec::len).sum();

    // Replay.
    let payment_policy = match options.payments.as_str() {
        "none" => PaymentPolicy::None,
        "critical" => PaymentPolicy::critical_value(),
        other => {
            eprintln!("engine_sim: unknown payments {other} (none|critical)");
            return ExitCode::FAILURE;
        }
    };
    // Observability: any of the export/profile/health flags turns the
    // recorder on. Strictly out-of-band — the deterministic stdout
    // document is byte-identical with it on or off (enforced in CI).
    // The health flags also stay out of the driver fingerprint: a
    // snapshot taken without them restores under them, and vice versa.
    let health_requested =
        options.health_out.is_some() || options.regret_every > 0 || options.slo_us > 0;
    let obs = if options.trace_out.is_some()
        || options.trace_chrome.is_some()
        || options.metrics_out.is_some()
        || options.profile
        || health_requested
    {
        ufp_obs::Recorder::enabled()
    } else {
        ufp_obs::Recorder::off()
    };
    ufp_par::set_recorder(obs.clone());
    let health = ufp_engine::HealthConfig {
        regret_every: options.regret_every,
        slo_us: options.slo_us,
        // Starvation / storm watermarks ride along whenever the health
        // exporter is on (pure telemetry; thresholds are conservative).
        starvation_epochs: if options.health_out.is_some() { 2 } else { 0 },
        eviction_storm_threshold: if options.health_out.is_some() {
            1.0
        } else {
            0.0
        },
        ..ufp_engine::HealthConfig::default()
    };
    let engine_config = EngineConfig {
        events: EventLevel::Epoch,
        payments: payment_policy,
        obs: obs.clone(),
        health,
        ..EngineConfig::with_epsilon(options.epsilon).parallel(Pool::new(options.threads))
    };
    let digest = trace_digest(&trace);
    let graph = Arc::new(graph);

    if options.shards > 1
        && (options.snapshot_every.is_some()
            || options.snapshot_dir.is_some()
            || options.restore_from.is_some())
    {
        eprintln!(
            "engine_sim: snapshot flags are not supported with --shards > 1 \
             (use ShardedEngine::snapshot_bytes programmatically)"
        );
        return ExitCode::FAILURE;
    }

    // Sharded replay: partition the network and drive a ShardedEngine.
    let sharded = if options.shards > 1 {
        let plan = match options.partitioner.as_str() {
            "blocks" => NodeBlocks.partition(&graph, options.shards),
            "edge-cut" => EdgeCut.partition(&graph, options.shards),
            other => {
                eprintln!("engine_sim: unknown partitioner {other} (blocks|edge-cut)");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "engine_sim: {} shards via {} partitioner, {} boundary edges",
            options.shards,
            options.partitioner,
            plan.boundary_edges().len()
        );
        Some(ShardedEngine::new(
            Arc::clone(&graph),
            plan,
            ShardConfig {
                engine: engine_config.clone(),
                lease_fraction: options.lease_fraction,
            },
        ))
    } else {
        None
    };

    // Fresh engine at epoch 0, or one recovered from the newest loadable
    // snapshot (replay then covers only the epochs after its watermark).
    let (mut engine, mut stop_counts) = match &options.restore_from {
        None => {
            let sim = match sharded {
                Some(s) => Sim::Sharded(Box::new(s)),
                None => Sim::Single(Box::new(Engine::from_shared(
                    Arc::clone(&graph),
                    engine_config.clone(),
                ))),
            };
            (sim, [0usize; 4])
        }
        Some(dir) => {
            let store = match SnapshotStore::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("engine_sim: cannot open snapshot store {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match store.recover(Arc::clone(&graph), engine_config.clone()) {
                Err(e) => {
                    eprintln!("engine_sim: restore failed: {e}");
                    return ExitCode::FAILURE;
                }
                Ok(None) => {
                    eprintln!("engine_sim: no snapshot in {dir}, starting from epoch 0");
                    (
                        Sim::Single(Box::new(Engine::from_shared(
                            Arc::clone(&graph),
                            engine_config.clone(),
                        ))),
                        [0usize; 4],
                    )
                }
                Ok(Some(recovered)) => {
                    for (path, reason) in &recovered.skipped {
                        eprintln!(
                            "engine_sim: skipped unreadable snapshot {}: {reason}",
                            path.display()
                        );
                    }
                    let stop_counts = match decode_driver(&recovered.driver, &options, digest) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("engine_sim: restore refused: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    // Topology authority check: the snapshot carries its
                    // own overlay event log, which must be an ancestor of
                    // the topology this run's failure trace implies at the
                    // snapshot's watermark. A shorter stored log is
                    // migrated forward (evictions priced and refunded); a
                    // divergent one has no reconciling delta and is
                    // refused with the typed `GraphMismatch`.
                    let watermark = (recovered.epoch as usize).min(fail_trace.len());
                    let target_events: Vec<TopologyEvent> =
                        fail_trace[..watermark].iter().flatten().copied().collect();
                    let target = match Topology::replay(&graph, &target_events) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("engine_sim: failure trace does not apply to the graph: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let mut engine = recovered.engine;
                    let migration = match engine.migrate_to(&target) {
                        Ok(m) => m,
                        Err(e) => {
                            eprintln!("engine_sim: restore refused: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    if let Some(m) = migration {
                        eprintln!(
                            "engine_sim: topology migration v{} -> v{}: {} evicted, \
                             {:.6} refunded, {} re-admission(s) queued",
                            m.from_version, m.to_version, m.evicted, m.refunded, m.readmissions
                        );
                    }
                    eprintln!(
                        "engine_sim: restored epoch {} from {}",
                        recovered.epoch,
                        recovered.path.display()
                    );
                    (Sim::Single(Box::new(engine)), stop_counts)
                }
            }
        }
    };

    let store = match &options.snapshot_dir {
        Some(dir) => match SnapshotStore::open(dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("engine_sim: cannot open snapshot store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    if options.snapshot_every.is_some() && store.is_none() {
        eprintln!("engine_sim: --snapshot-every requires --snapshot-dir");
        return ExitCode::FAILURE;
    }

    let start_epoch = engine.book().epoch() as usize;
    let mut sampled_rows: Vec<Vec<String>> = Vec::new();
    let sample_every = (options.epochs / 10).max(1);
    // Per-epoch repair-phase wall-clock (µs): topology.apply,
    // repair.evict, repair.readmit. The repair pass runs *before* the
    // epoch bracket opens, so the profile table cannot see it through
    // the bracket's own deltas — the driver diffs the recorder's
    // lifetime phase totals around the pass instead.
    let mut repair_us: std::collections::HashMap<u64, [u64; 3]> = std::collections::HashMap::new();
    let replay_started = Instant::now();
    let mut epoch_us: Vec<u64> = Vec::new();
    let mut replayed_arrivals = 0u64;
    for (t, batch) in trace.iter().enumerate().skip(start_epoch) {
        // Infrastructure first: epoch `t`'s topology events run the
        // repair pass (evictions priced and refunded, re-admission
        // candidates queued), then survivors of past repairs rejoin the
        // arrival stream ahead of the scheduled batch.
        let merged: Vec<Arrival>;
        let batch: &[Arrival] = if fail_trace.is_empty() {
            batch
        } else {
            if let Some(events) = fail_trace.get(t) {
                if !events.is_empty() {
                    let before = obs.phase_totals();
                    if let Err(e) = engine.apply_topology(events) {
                        eprintln!("engine_sim: topology event refused at epoch {t}: {e}");
                        return ExitCode::FAILURE;
                    }
                    if let (true, Some((b, _)), Some((a, _))) =
                        (options.profile, before, obs.phase_totals())
                    {
                        let delta = |ph: ufp_obs::Phase| {
                            a[ph.index()].saturating_sub(b[ph.index()]) / 1_000
                        };
                        repair_us.insert(
                            t as u64 + 1,
                            [
                                delta(ufp_obs::Phase::TopologyApply),
                                delta(ufp_obs::Phase::RepairEvict),
                                delta(ufp_obs::Phase::RepairReadmit),
                            ],
                        );
                    }
                }
            }
            let readmitted = engine.drain_readmissions();
            if readmitted.is_empty() {
                batch
            } else {
                merged = readmitted
                    .into_iter()
                    .chain(batch.iter().cloned())
                    .collect();
                &merged
            }
        };
        let report = engine.submit_batch(batch);
        epoch_us.push(report.elapsed.as_micros() as u64);
        replayed_arrivals += report.arrivals as u64;
        stop_counts[match report.stop {
            StopReason::Exhausted => 0,
            StopReason::Guard => 1,
            StopReason::NoPath => 2,
            StopReason::IterationCap => 3,
        }] += 1;
        if (t + 1) % sample_every == 0 || t + 1 == options.epochs {
            let m = engine.book().metrics();
            sampled_rows.push(vec![
                report.epoch.to_string(),
                report.arrivals.to_string(),
                report.accepted.to_string(),
                report.released.to_string(),
                f2(100.0 * m.acceptance_rate()),
                f2(100.0 * report.total_utilization),
                f2(report.min_residual),
            ]);
        }
        if let (Some(every), Some(store), Sim::Single(single)) =
            (options.snapshot_every, &store, &engine)
        {
            if (t + 1) % every == 0 {
                let driver = encode_driver(&options, digest, &stop_counts);
                match store.save_with(single, &driver) {
                    Ok(path) => eprintln!(
                        "engine_sim: snapshot at epoch {} -> {}",
                        single.epoch(),
                        path.display()
                    ),
                    Err(e) => {
                        eprintln!("engine_sim: snapshot failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        if options.stop_after == Some(t + 1) {
            // Simulated crash: no summary, no final feasibility audit —
            // recovery (--restore-from) must rebuild everything from the
            // snapshots already on disk.
            eprintln!(
                "engine_sim: stopping after epoch {} (simulated crash)",
                t + 1
            );
            return ExitCode::SUCCESS;
        }
    }

    let replay_elapsed = replay_started.elapsed();
    let timing = EpochTiming::of(epoch_us, replayed_arrivals);

    // Feasibility verdict: active always; cumulative too when no churn.
    let (active_ok, cumulative_ok) = feasibility(engine.book(), options.churn.is_none());
    let feasible = active_ok && cumulative_ok.is_none_or(|c| c);

    // Observability exports — side files, never part of the
    // deterministic stdout document.
    let obs_snapshot = obs.snapshot();
    if let Some(snap) = &obs_snapshot {
        let write = |path: &Option<String>, what: &str, body: String| -> Result<(), String> {
            match path {
                None => Ok(()),
                Some(p) => {
                    std::fs::write(p, body).map_err(|e| format!("cannot write {what} {p}: {e}"))
                }
            }
        };
        let wrote = write(
            &options.trace_out,
            "trace",
            ufp_obs::export::spans_jsonl(snap),
        )
        .and_then(|()| {
            write(
                &options.trace_chrome,
                "chrome trace",
                ufp_obs::export::chrome_trace(snap),
            )
        })
        .and_then(|()| {
            write(
                &options.metrics_out,
                "metrics",
                ufp_obs::export::metrics_json(snap),
            )
        })
        .and_then(|()| {
            write(
                &options.health_out,
                "health exposition",
                ufp_obs::export::prometheus_text(snap),
            )
        });
        if let Err(e) = wrote {
            eprintln!("engine_sim: {e}");
            return ExitCode::FAILURE;
        }
    }

    if options.json {
        let metrics = engine.book().metrics();
        let churn = match options.churn {
            Some((lo, hi)) => format!("[{lo}, {hi}]"),
            None => "null".to_string(),
        };
        println!("{{");
        println!(
            "  \"config\": {{\"nodes\": {}, \"edges\": {}, \"epochs\": {}, \"mean\": {}, \
             \"hotspots\": {}, \"eps\": {}, \"seed\": {}, \"process\": \"{}\", \
             \"churn\": {}, \"payments\": \"{}\", \"threads\": {}, \
             \"shards\": {}, \"partitioner\": \"{}\", \"communities\": {}, \
             \"inter_edges\": {}, \"cross_fraction\": {}, \"cross_unroutable\": {}, \
             \"lease_fraction\": {}, \
             \"fail_seed\": {}, \"flap_rate\": {}, \
             \"resize_rate\": {}, \"outage_rate\": {}, \"drains\": {}}},",
            options.nodes,
            options.edges,
            options.epochs,
            options.mean,
            options.hotspots,
            options.epsilon,
            options.seed,
            options.process,
            churn,
            options.payments,
            options.threads,
            options.shards,
            options.partitioner,
            options.communities,
            options.inter_edges,
            options.cross_fraction,
            options.cross_unroutable,
            options.lease_fraction,
            options
                .fail_seed
                .map_or("null".to_string(), |s| s.to_string()),
            options.flap_rate,
            options.resize_rate,
            options.outage_rate,
            options.drains.len()
        );
        println!(
            "  \"totals\": {{\"requests\": {}, \"accepted\": {}, \"rejected\": {}, \
             \"released\": {}, \"evicted\": {}, \"refunded\": {:.6}, \
             \"acceptance_rate\": {:.6}, \"value_admitted\": {:.6}, \
             \"revenue\": {:.6}, \"utilization\": {:.6}, \"events_dropped\": {}, \
             \"topology_events\": {}, \"links_down\": {}, \
             \"stops\": {{\"exhausted\": {}, \"guard\": {}, \"nopath\": {}, \"cap\": {}}}}},",
            total_requests,
            metrics.accepted,
            metrics.rejected,
            metrics.released,
            metrics.evicted,
            metrics.refunded,
            metrics.acceptance_rate(),
            metrics.value_admitted,
            metrics.revenue,
            engine.book().residual().total_utilization(),
            engine.book().events_dropped(),
            total_topology_events,
            engine.book().topology().links_down(),
            stop_counts[0],
            stop_counts[1],
            stop_counts[2],
            stop_counts[3]
        );
        // Per-shard deterministic counters (lease accounting; the last
        // row is the cross-shard pass). Wall-clock per-shard epoch time lives
        // in the "timing" object below.
        if let Some(stats) = engine.shard_stats() {
            let rows: Vec<String> = stats
                .iter()
                .map(|s| {
                    format!(
                        "{{\"shard\": {}, \"requests\": {}, \"admissions\": {}, \
                         \"lease_granted\": {:.6}, \"lease_used\": {:.6}, \
                         \"lease_utilization\": {:.6}}}",
                        s.shard,
                        s.requests,
                        s.admissions,
                        s.lease_granted,
                        s.lease_used,
                        s.lease_utilization
                    )
                })
                .collect();
            println!("  \"shards_detail\": [{}],", rows.join(", "));
        }
        // Deployment-wide lease accounting (sharded runs only;
        // deterministic — CI filters it only in sharded-vs-single
        // comparisons, where the single side has no leases at all).
        if let Some(stats) = engine.shard_stats() {
            let granted: f64 = stats.iter().map(|s| s.lease_granted).sum();
            let used: f64 = stats.iter().map(|s| s.lease_used).sum();
            println!(
                "  \"leases\": {{\"granted\": {:.6}, \"used\": {:.6}, \"utilization\": {:.6}}},",
                granted,
                used,
                if granted > 0.0 { used / granted } else { 0.0 }
            );
        }
        println!("  \"feasible\": {feasible},");
        // Wall-clock block — the one non-deterministic part of the
        // document; strip it before byte-comparing runs.
        let shard_timing = match engine.shard_stats() {
            None => String::new(),
            Some(stats) => format!(
                ", \"shard_epoch_us\": [{}]",
                stats
                    .iter()
                    .map(|s| s.epoch_time_us.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        };
        // Per-epoch phase breakdown (wall-clock; lives inside "timing"
        // because it is measured, not deterministic).
        let profile_json = match (&obs_snapshot, options.profile) {
            (Some(snap), true) => format!(", \"profile\": [{}]", profile_rows(snap).join(", ")),
            _ => String::new(),
        };
        // Auction-health summary (regret ratios are deterministic, but
        // SLO misses and alerts are wall-clock-derived, so the whole
        // block lives inside "timing" with the other measured figures).
        let health_json = match (&obs_snapshot, health_requested) {
            (Some(snap), true) => {
                let ratios: Vec<f64> = snap
                    .profiles
                    .iter()
                    .filter_map(|p| p.regret.map(|s| s.ratio))
                    .collect();
                let worst = ratios.iter().copied().fold(1.0f64, f64::min);
                let mean = if ratios.is_empty() {
                    1.0
                } else {
                    ratios.iter().sum::<f64>() / ratios.len() as f64
                };
                format!(
                    ", \"health\": {{\"regret_samples\": {}, \"regret_ratio_mean\": {:.6}, \
                     \"regret_ratio_worst\": {:.6}, \"alerts\": {}}}",
                    ratios.len(),
                    mean,
                    worst,
                    snap.alerts.len()
                )
            }
            _ => String::new(),
        };
        println!(
            "  \"timing\": {{\"elapsed_s\": {:.3}, \"p50_us\": {}, \"p99_us\": {}, \
             \"requests_per_s\": {:.1}{}{}{}}}",
            replay_elapsed.as_secs_f64(),
            timing.p50_us,
            timing.p99_us,
            timing.requests_per_s,
            shard_timing,
            profile_json,
            health_json
        );
        println!("}}");
        return if feasible {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Deterministic summary (stdout).
    let metrics = engine.book().metrics();
    let mut timeline = Table::new(
        "SIM-T",
        format!(
            "engine timeline — {} nodes, {} edges, {} epochs, {} process, seed {}",
            options.nodes, options.edges, options.epochs, options.process, options.seed
        ),
        &[
            "epoch",
            "arrivals",
            "accepted",
            "released",
            "cum acc %",
            "util %",
            "min resid",
        ],
    );
    for row in sampled_rows {
        timeline.row(row);
    }
    print!("{}", timeline.render());

    let mut summary = Table::new("SIM-S", "engine summary", &["metric", "value"]);
    let kv = |t: &mut Table, k: &str, v: String| t.row(vec![k.to_string(), v]);
    kv(
        &mut summary,
        "requests in trace",
        total_requests.to_string(),
    );
    kv(&mut summary, "epochs", metrics.epochs.to_string());
    kv(&mut summary, "accepted", metrics.accepted.to_string());
    kv(&mut summary, "rejected", metrics.rejected.to_string());
    kv(&mut summary, "released", metrics.released.to_string());
    kv(&mut summary, "evicted", metrics.evicted.to_string());
    kv(&mut summary, "refunded", f2(metrics.refunded));
    if options.fail_seed.is_some() {
        kv(
            &mut summary,
            "topology events / links down",
            format!(
                "{}/{}",
                total_topology_events,
                engine.book().topology().links_down()
            ),
        );
    }
    kv(
        &mut summary,
        "acceptance rate %",
        f2(100.0 * metrics.acceptance_rate()),
    );
    kv(&mut summary, "value admitted", f2(metrics.value_admitted));
    kv(&mut summary, "payments", options.payments.clone());
    kv(&mut summary, "revenue", f2(metrics.revenue));
    kv(
        &mut summary,
        "total utilization %",
        f2(100.0 * engine.book().residual().total_utilization()),
    );
    if let Some(stats) = engine.shard_stats() {
        for s in &stats {
            let label = if s.shard == stats.len() - 1 {
                "cross-shard".to_string()
            } else {
                format!("shard {}", s.shard)
            };
            kv(
                &mut summary,
                &format!("{label} req/adm/lease util %"),
                format!(
                    "{}/{}/{}",
                    s.requests,
                    s.admissions,
                    f2(100.0 * s.lease_utilization)
                ),
            );
        }
    }
    let hist = engine.book().utilization_histogram(10);
    kv(
        &mut summary,
        "edge util histogram",
        hist.iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("/"),
    );
    kv(
        &mut summary,
        "events dropped",
        engine.book().events_dropped().to_string(),
    );
    kv(
        &mut summary,
        "stops exh/guard/nopath/cap",
        format!(
            "{}/{}/{}/{}",
            stop_counts[0], stop_counts[1], stop_counts[2], stop_counts[3]
        ),
    );

    let active_audit = if engine.book().topology().is_pristine() {
        "check_feasible"
    } else {
        "effective-capacity audit"
    };
    if active_ok {
        summary.note(format!("active solution: {active_audit} PASS"));
    } else {
        summary.note(format!("active solution: {active_audit} FAIL"));
    }
    match cumulative_ok {
        Some(true) => summary.note("cumulative solution: check_feasible PASS"),
        Some(false) => summary.note("cumulative solution: check_feasible FAIL"),
        None if options.fail_seed.is_some() => {
            summary.note("cumulative feasibility skipped (evictions/churn release capacity)")
        }
        None => summary.note("cumulative feasibility skipped (churn releases capacity)"),
    }
    print!("{}", summary.render());

    // Wall-clock figures (stderr; excluded from determinism).
    eprintln!(
        "latency p50 {} µs, p99 {} µs; throughput {:.0} requests/s",
        timing.p50_us, timing.p99_us, timing.requests_per_s,
    );
    if options.profile {
        if let Some(snap) = &obs_snapshot {
            for p in &snap.profiles {
                let mut line = format!(
                    "profile epoch {}: wall {} µs, open {} µs, plan {} µs, commit {} µs",
                    p.epoch,
                    p.wall_ns / 1_000,
                    p.phase_ns[ufp_obs::Phase::EpochOpen.index()] / 1_000,
                    p.phase_ns[ufp_obs::Phase::EpochPlan.index()] / 1_000,
                    p.phase_ns[ufp_obs::Phase::EpochCommit.index()] / 1_000,
                );
                if let Some([apply, evict, readmit]) = repair_us.get(&p.epoch) {
                    line.push_str(&format!(
                        ", topology.apply {apply} µs, repair.evict {evict} µs, \
                         repair.readmit {readmit} µs"
                    ));
                }
                line.push_str(&format!(", coverage {:.1}%", 100.0 * p.coverage()));
                if let Some(s) = p.regret {
                    line.push_str(&format!(
                        ", regret {:.3} (online {:.2} / bound {:.2}, gap {:.2}, \
                         {} commodities, {} iterations)",
                        s.ratio,
                        s.online_value,
                        s.fractional_bound,
                        s.duality_gap,
                        s.commodities,
                        s.iterations
                    ));
                }
                eprintln!("{line}");
            }
            for a in &snap.alerts {
                eprintln!("health alert at epoch {}: {:?}", a.epoch(), a);
            }
        }
    }

    if feasible {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::EpochTiming;

    #[test]
    fn epoch_timing_reads_percentiles_and_throughput_from_reports() {
        let t = EpochTiming::of(vec![400, 100, 1000, 300, 200], 10);
        assert_eq!(t.p50_us, 300);
        assert_eq!(t.p99_us, 1000);
        assert!((t.requests_per_s - 10.0 / 0.002).abs() < 1e-6);
        let none = EpochTiming::of(Vec::new(), 0);
        assert_eq!((none.p50_us, none.p99_us), (0, 0));
        assert_eq!(none.requests_per_s, 0.0);
    }
}
