//! Durable engine snapshots and the snapshot + journal recovery model.
//!
//! ## What a snapshot contains
//!
//! A snapshot is one [`codec`] container holding *every* piece of engine
//! state that influences future epochs or read-outs, each in its own
//! tagged, length-prefixed section:
//!
//! | tag | section    | contents                                            |
//! |-----|------------|-----------------------------------------------------|
//! | 1   | config     | fingerprint of the semantic engine configuration    |
//! | 2   | graph      | fingerprint (kind, sizes, edge digest) of the network |
//! | 3   | state      | epoch counter, committed loads, carried dual exponents |
//! | 4   | requests   | the append-only global request registry             |
//! | 5   | admissions | every admission (path, payment, TTL, released flag) |
//! | 6   | events     | retained event log + dropped-event cursor           |
//! | 7   | metrics    | counters and the latency ring buffer                |
//! | 9   | topology   | dynamic-topology overlay: version, fingerprint, event log |
//! | 10  | readmit    | evicted flows queued for re-admission               |
//! | 8   | driver     | opaque caller blob (RNG stream position, trace cursor, …) |
//!
//! The *base* graph itself is **not** serialized — it is immutable,
//! typically large, and already owned by the caller; restore takes the
//! graph (and config) and verifies both against the stored
//! fingerprints, failing with [`CodecError::GraphMismatch`] /
//! [`CodecError::ConfigMismatch`] rather than continuing over the wrong
//! network. The *dynamic* overlay (capacity resizes, link failures,
//! node drains) **is** serialized, as its full event log plus the
//! (version, state-fingerprint) pair: restore replays the log over the
//! base graph and cross-checks both, so a snapshot pins exactly the
//! topology it was taken on. Restoring onto a *mutated* topology is an
//! explicit typed migration — see [`Engine::restore_with_topology`] and
//! [`TopologyMigration`] — never a silent reinterpretation. Every float travels as
//! its exact IEEE-754 bit pattern, so a restored engine's subsequent
//! epochs, critical-value payments, and metrics are **byte-identical**
//! to an uninterrupted run (asserted by `tests/snapshot_recovery.rs`).
//!
//! The engine owns no RNG — its evolution is a deterministic function of
//! the arrival stream — so there is no generator state in the engine
//! sections. Drivers that *do* sample (trace generators like
//! `engine_sim`) persist their RNG stream position and arrival-stream
//! cursor in the opaque driver section.
//!
//! ## Snapshot + journal recovery
//!
//! A [`SnapshotStore`] pairs periodic snapshots with the arrival journal
//! the deployment already keeps (the engine's event log records epoch
//! boundaries; the driver's trace or intake queue holds the arrivals
//! themselves — the write-ahead journal). Recovery is:
//!
//! 1. load the newest structurally-valid snapshot (corrupt or
//!    half-written files from a crash mid-save are skipped, with the
//!    typed reason reported),
//! 2. read its epoch watermark,
//! 3. replay only the journaled arrivals for epochs **after** the
//!    watermark.
//!
//! Because restore is bit-identical and epochs are deterministic, the
//! replayed suffix reproduces exactly the state (and payments) of a run
//! that never crashed.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ufp_core::{Request, RequestId, StopReason};
use ufp_netgraph::graph::{Graph, GraphKind};
use ufp_netgraph::ids::{EdgeId, NodeId};
use ufp_netgraph::residual::ResidualCaps;
use ufp_netgraph::topology::{Topology, TopologyEvent};

use crate::codec::{self, CodecError, Fnv64, Mark, Reader, Writer};
use crate::config::EngineConfig;
use crate::engine::{Admission, Arrival, Engine};
use crate::event::EngineEvent;
use crate::metrics::EngineMetrics;

/// Section tags, in their mandatory order of appearance.
const SEC_CONFIG: u8 = 1;
const SEC_GRAPH: u8 = 2;
const SEC_STATE: u8 = 3;
const SEC_REQUESTS: u8 = 4;
const SEC_ADMISSIONS: u8 = 5;
const SEC_EVENTS: u8 = 6;
const SEC_METRICS: u8 = 7;
const SEC_TOPOLOGY: u8 = 9;
const SEC_READMIT: u8 = 10;
// The opaque driver blob stays last so its `rest()`-style consumers
// keep working; tags 9/10 were assigned after 8 shipped.
const SEC_DRIVER: u8 = 8;

/// Fingerprint of a graph: enough to refuse restoring over a different
/// network, without serializing the network itself.
fn graph_digest(graph: &Graph) -> u64 {
    let mut h = Fnv64::default();
    for e in graph.edges() {
        h.write(&e.src.0.to_le_bytes());
        h.write(&e.dst.0.to_le_bytes());
        h.write(&e.capacity.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Write `bytes` to `path` atomically **and durably**: temp file in the
/// same directory, fsync'd, renamed into place, then the parent
/// directory fsync'd — a rename is only crash-safe once its directory
/// entry is on disk, and callers prune their journal against the
/// returned watermark, so `Ok` here must mean the snapshot survives
/// power loss.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CodecError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Open a tagged, length-prefixed section written in place; close it
/// with [`Writer::end_bytes`].
fn begin_section(w: &mut Writer, tag: u8) -> Mark {
    w.put_u8(tag);
    w.begin_bytes()
}

fn open_section<'a>(
    r: &mut Reader<'a>,
    tag: u8,
    context: &'static str,
) -> Result<Reader<'a>, CodecError> {
    let found = r.get_u8(context)?;
    if found != tag {
        return Err(CodecError::Malformed { context });
    }
    Ok(Reader::new(r.get_bytes(context)?))
}

// ---------------------------------------------------------------------
// Encode.
// ---------------------------------------------------------------------

/// Serialize `engine` (plus an opaque `driver` blob) into a framed
/// snapshot container.
pub fn encode_engine(engine: &Engine, driver: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    encode_engine_into(&mut w, engine, driver);
    w.into_bytes()
}

/// [`encode_engine`] appended in place to `w` — how composing snapshot
/// layers (the sharded engine's) embed the engine container without
/// building and copying it separately.
pub fn encode_engine_into(w: &mut Writer, engine: &Engine, driver: &[u8]) {
    let container = w.begin_container();

    // Config fingerprint: the semantic fields a restored engine must
    // share for continuation to stay bit-identical. The worker pool is
    // deliberately absent — parallel and sequential fan-outs produce
    // identical results by `ufp_par`'s ordered reduction, so a snapshot
    // may be restored under a different thread count. There is no
    // selection field to pin: the allocator runs one selection loop,
    // and nothing about it is configurable.
    let section = begin_section(w, SEC_CONFIG);
    let cfg = &engine.config;
    w.put_f64(cfg.epsilon);
    w.put_f64(cfg.carry_decay);
    w.put_f64(engine.floor);
    let (pay_class, pay_tol, pay_floor) = cfg.payments.fingerprint();
    w.put_u8(pay_class);
    w.put_u64(pay_tol);
    w.put_u64(pay_floor);
    w.put_u8(match cfg.events {
        crate::config::EventLevel::Epoch => 0,
        crate::config::EventLevel::Request => 1,
    });
    w.put_u64(cfg.event_capacity as u64);
    w.end_bytes(section);

    // Graph fingerprint.
    let section = begin_section(w, SEC_GRAPH);
    w.put_u8(match engine.graph.kind() {
        GraphKind::Directed => 0,
        GraphKind::Undirected => 1,
    });
    w.put_u64(engine.graph.num_nodes() as u64);
    w.put_u64(engine.graph.num_edges() as u64);
    w.put_u64(graph_digest(&engine.graph));
    w.end_bytes(section);

    // Core evolving state.
    let section = begin_section(w, SEC_STATE);
    w.put_u64(engine.epoch);
    w.put_f64_slice(engine.residual.loads());
    w.put_f64_slice(&engine.carry);
    w.end_bytes(section);

    // Request registry.
    let section = begin_section(w, SEC_REQUESTS);
    w.put_u64(engine.requests.len() as u64);
    for r in &engine.requests {
        w.put_u32(r.src.0);
        w.put_u32(r.dst.0);
        w.put_f64(r.demand);
        w.put_f64(r.value);
    }
    w.end_bytes(section);

    // Admissions (paths included: releases need them, read-outs expose
    // them). The expiry index is *not* serialized — it is rebuilt from
    // the unreleased TTL'd admissions, in the same admission order that
    // produced it.
    let section = begin_section(w, SEC_ADMISSIONS);
    w.put_u64(engine.admissions.len() as u64);
    for a in &engine.admissions {
        w.put_u32(a.request.0);
        w.put_u64(a.epoch);
        match a.expires_at {
            None => w.put_bool(false),
            Some(e) => {
                w.put_bool(true);
                w.put_u64(e);
            }
        }
        w.put_f64(a.payment);
        w.put_bool(a.released);
        w.put_bool(a.evicted);
        w.put_u64(a.path.nodes().len() as u64);
        for n in a.path.nodes() {
            w.put_u32(n.0);
        }
        for e in a.path.edges() {
            w.put_u32(e.0);
        }
    }
    w.end_bytes(section);

    // Event log + cursor.
    let section = begin_section(w, SEC_EVENTS);
    w.put_u64(engine.events_dropped);
    w.put_u64(engine.events.len() as u64);
    for e in &engine.events {
        encode_event(w, e);
    }
    w.end_bytes(section);

    // Metrics (latency figures are wall-clock and excluded from any
    // determinism guarantee, but round-trip identity still preserves
    // them exactly).
    let section = begin_section(w, SEC_METRICS);
    let m = &engine.metrics;
    w.put_u64(m.epochs);
    w.put_u64(m.arrivals);
    w.put_u64(m.accepted);
    w.put_u64(m.rejected);
    w.put_u64(m.released);
    w.put_u64(m.evicted);
    w.put_f64(m.value_admitted);
    w.put_f64(m.revenue);
    w.put_f64(m.refunded);
    w.put_u64(m.total_latency_us);
    w.put_u64(m.latency_cursor as u64);
    w.put_u64_slice(&m.batch_latency_us);
    w.end_bytes(section);

    // Dynamic-topology overlay: the full event log plus the (version,
    // state-fingerprint) pair it must replay to. Both are redundant with
    // the log — deliberately: restore replays and cross-checks them, so
    // a snapshot can never be reinterpreted over a different topology.
    let section = begin_section(w, SEC_TOPOLOGY);
    let topo = engine.topology();
    w.put_u64(topo.version());
    w.put_u64(topo.fingerprint());
    w.put_u64(topo.log().len() as u64);
    for e in topo.log() {
        encode_topology_event(w, e);
    }
    w.end_bytes(section);

    // Re-admission queue: evicted flows waiting for the next batch.
    let section = begin_section(w, SEC_READMIT);
    w.put_u64(engine.readmit_queue.len() as u64);
    for a in &engine.readmit_queue {
        w.put_u32(a.request.src.0);
        w.put_u32(a.request.dst.0);
        w.put_f64(a.request.demand);
        w.put_f64(a.request.value);
        match a.ttl {
            None => w.put_bool(false),
            Some(t) => {
                w.put_bool(true);
                w.put_u32(t);
            }
        }
    }
    w.end_bytes(section);

    // Opaque driver blob — raw: the section frame already delimits it.
    let section = begin_section(w, SEC_DRIVER);
    w.put_raw(driver);
    w.end_bytes(section);

    w.end_container(container);
}

/// Serialize one [`EngineEvent`] in the snapshot wire format.
fn encode_event(w: &mut Writer, e: &EngineEvent) {
    match *e {
        EngineEvent::EpochStarted { epoch, arrivals } => {
            w.put_u8(0);
            w.put_u64(epoch);
            w.put_u64(arrivals as u64);
        }
        EngineEvent::Admitted {
            epoch,
            request,
            hops,
            payment,
        } => {
            w.put_u8(1);
            w.put_u64(epoch);
            w.put_u32(request.0);
            w.put_u64(hops as u64);
            w.put_f64(payment);
        }
        EngineEvent::Rejected { epoch, request } => {
            w.put_u8(2);
            w.put_u64(epoch);
            w.put_u32(request.0);
        }
        EngineEvent::Released { epoch, request } => {
            w.put_u8(3);
            w.put_u64(epoch);
            w.put_u32(request.0);
        }
        EngineEvent::Evicted {
            epoch,
            request,
            refund,
        } => {
            w.put_u8(5);
            w.put_u64(epoch);
            w.put_u32(request.0);
            w.put_f64(refund);
        }
        EngineEvent::EpochCompleted {
            epoch,
            accepted,
            rejected,
            released,
            value,
            revenue,
            stop,
        } => {
            w.put_u8(4);
            w.put_u64(epoch);
            w.put_u64(accepted as u64);
            w.put_u64(rejected as u64);
            w.put_u64(released as u64);
            w.put_f64(value);
            w.put_f64(revenue);
            w.put_u8(encode_stop(stop));
        }
    }
}

/// Serialize one [`TopologyEvent`] in the snapshot wire format.
fn encode_topology_event(w: &mut Writer, e: &TopologyEvent) {
    match *e {
        TopologyEvent::SetCapacity { edge, capacity } => {
            w.put_u8(0);
            w.put_u32(edge.0);
            w.put_f64(capacity);
        }
        TopologyEvent::LinkDown { edge } => {
            w.put_u8(1);
            w.put_u32(edge.0);
        }
        TopologyEvent::LinkUp { edge } => {
            w.put_u8(2);
            w.put_u32(edge.0);
        }
        TopologyEvent::DrainNode { node } => {
            w.put_u8(3);
            w.put_u32(node.0);
        }
        TopologyEvent::UndrainNode { node } => {
            w.put_u8(4);
            w.put_u32(node.0);
        }
    }
}

/// Inverse of [`encode_topology_event`]. Range and value validation is
/// left to [`Topology::replay`], which checks every event against the
/// live base graph.
fn decode_topology_event(s: &mut Reader<'_>) -> Result<TopologyEvent, CodecError> {
    Ok(match s.get_u8("topology event tag")? {
        0 => TopologyEvent::SetCapacity {
            edge: EdgeId(s.get_u32("topology event edge")?),
            capacity: s.get_f64("topology event capacity")?,
        },
        1 => TopologyEvent::LinkDown {
            edge: EdgeId(s.get_u32("topology event edge")?),
        },
        2 => TopologyEvent::LinkUp {
            edge: EdgeId(s.get_u32("topology event edge")?),
        },
        3 => TopologyEvent::DrainNode {
            node: NodeId(s.get_u32("topology event node")?),
        },
        4 => TopologyEvent::UndrainNode {
            node: NodeId(s.get_u32("topology event node")?),
        },
        _ => {
            return Err(CodecError::Malformed {
                context: "topology event tag",
            })
        }
    })
}

fn encode_stop(s: StopReason) -> u8 {
    match s {
        StopReason::Exhausted => 0,
        StopReason::Guard => 1,
        StopReason::NoPath => 2,
        StopReason::IterationCap => 3,
    }
}

fn decode_stop(v: u8) -> Result<StopReason, CodecError> {
    Ok(match v {
        0 => StopReason::Exhausted,
        1 => StopReason::Guard,
        2 => StopReason::NoPath,
        3 => StopReason::IterationCap,
        _ => {
            return Err(CodecError::Malformed {
                context: "stop reason tag",
            })
        }
    })
}

// ---------------------------------------------------------------------
// Decode.
// ---------------------------------------------------------------------

/// Deserialize a snapshot into a ready-to-run [`Engine`] over the given
/// graph and configuration, returning the engine and the opaque driver
/// blob. Fails with a typed [`CodecError`] — never a panic, never a
/// partially-restored engine — on corruption, truncation, version skew,
/// or a graph/config that does not match the snapshot's fingerprints.
pub fn decode_engine(
    bytes: &[u8],
    graph: Arc<Graph>,
    config: EngineConfig,
) -> Result<(Engine, Vec<u8>), CodecError> {
    let body = codec::open_container(bytes)?;
    let mut r = Reader::new(body);

    // Config fingerprint must match the provided configuration.
    config.validate();
    let mut s = open_section(&mut r, SEC_CONFIG, "config section")?;
    let floor = config
        .residual_floor
        .resolve(graph.num_edges(), config.epsilon);
    check_bits(s.get_f64("config epsilon")?, config.epsilon, "epsilon")?;
    check_bits(
        s.get_f64("config carry_decay")?,
        config.carry_decay,
        "carry_decay",
    )?;
    // The resolved floor depends on the *provided* graph's edge count, so
    // comparing it now would misreport a wrong graph as a config
    // mismatch; the check is deferred until the graph fingerprint has
    // passed.
    let stored_floor = s.get_f64("config residual floor")?;
    let (pay_class, pay_tol, pay_floor) = config.payments.fingerprint();
    if s.get_u8("config payments class")? != pay_class {
        return Err(CodecError::ConfigMismatch {
            context: "payment policy",
        });
    }
    if s.get_u64("config payments tolerance")? != pay_tol
        || s.get_u64("config payments floor")? != pay_floor
    {
        return Err(CodecError::ConfigMismatch {
            context: "payment tolerances",
        });
    }
    let events_level = match config.events {
        crate::config::EventLevel::Epoch => 0,
        crate::config::EventLevel::Request => 1,
    };
    if s.get_u8("config event level")? != events_level {
        return Err(CodecError::ConfigMismatch {
            context: "event level",
        });
    }
    if s.get_u64("config event capacity")? != config.event_capacity as u64 {
        return Err(CodecError::ConfigMismatch {
            context: "event capacity",
        });
    }
    s.expect_exhausted()?;

    // Graph fingerprint must match the provided graph.
    let mut s = open_section(&mut r, SEC_GRAPH, "graph section")?;
    let kind = match graph.kind() {
        GraphKind::Directed => 0,
        GraphKind::Undirected => 1,
    };
    if s.get_u8("graph kind")? != kind {
        return Err(CodecError::GraphMismatch {
            context: "graph kind",
        });
    }
    if s.get_u64("graph node count")? != graph.num_nodes() as u64 {
        return Err(CodecError::GraphMismatch {
            context: "node count",
        });
    }
    if s.get_u64("graph edge count")? != graph.num_edges() as u64 {
        return Err(CodecError::GraphMismatch {
            context: "edge count",
        });
    }
    if s.get_u64("graph digest")? != graph_digest(&graph) {
        return Err(CodecError::GraphMismatch {
            context: "edge digest",
        });
    }
    s.expect_exhausted()?;
    // Graph verified: a floor difference now really is a config
    // difference.
    check_bits(stored_floor, floor, "resolved residual floor")?;

    // Core state.
    let mut s = open_section(&mut r, SEC_STATE, "state section")?;
    let epoch = s.get_u64("epoch counter")?;
    let loads = s.get_f64_vec("residual loads")?;
    let carry = s.get_f64_vec("carried dual exponents")?;
    s.expect_exhausted()?;
    // The residual tracker is built only after the topology section is
    // decoded: its capacities are the *effective* (overlay) ones, not
    // the base graph's.
    if loads.len() != graph.num_edges() {
        return Err(CodecError::Malformed {
            context: "residual loads (length or range)",
        });
    }
    if carry.len() != graph.num_edges() || carry.iter().any(|k| !k.is_finite() || *k < 0.0) {
        return Err(CodecError::Malformed {
            context: "carried dual exponents (length or range)",
        });
    }

    // Request registry.
    let mut s = open_section(&mut r, SEC_REQUESTS, "requests section")?;
    let n = s.get_len("request count", 24)?;
    let mut requests = Vec::with_capacity(n);
    for _ in 0..n {
        let src = s.get_u32("request src")?;
        let dst = s.get_u32("request dst")?;
        let demand = s.get_f64("request demand")?;
        let value = s.get_f64("request value")?;
        if src as usize >= graph.num_nodes() || dst as usize >= graph.num_nodes() || src == dst {
            return Err(CodecError::Malformed {
                context: "request endpoints",
            });
        }
        if !(demand.is_finite() && demand > 0.0 && value.is_finite() && value > 0.0) {
            return Err(CodecError::Malformed {
                context: "request type (demand/value range)",
            });
        }
        // Fields validated above; bypass `Request::new` so corrupted
        // input can never reach its asserts.
        requests.push(Request {
            src: NodeId(src),
            dst: NodeId(dst),
            demand,
            value,
        });
    }
    s.expect_exhausted()?;

    // Admissions, with the expiry index rebuilt in admission order (the
    // same order the live engine inserted entries, so continuation
    // releases in the identical sequence).
    let mut s = open_section(&mut r, SEC_ADMISSIONS, "admissions section")?;
    let n = s.get_len("admission count", 1)?;
    let mut admissions = Vec::with_capacity(n);
    let mut expiry_index: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for i in 0..n {
        let request = s.get_u32("admission request id")?;
        if request as usize >= requests.len() {
            return Err(CodecError::Malformed {
                context: "admission request id out of range",
            });
        }
        let adm_epoch = s.get_u64("admission epoch")?;
        let expires_at = if s.get_bool("admission expiry flag")? {
            Some(s.get_u64("admission expiry epoch")?)
        } else {
            None
        };
        let payment = s.get_f64("admission payment")?;
        if !payment.is_finite() {
            return Err(CodecError::Malformed {
                context: "admission payment",
            });
        }
        let released = s.get_bool("admission released flag")?;
        let evicted = s.get_bool("admission evicted flag")?;
        if evicted && !released {
            return Err(CodecError::Malformed {
                context: "admission evicted but not released",
            });
        }
        let node_count = s.get_len("admission path nodes", 4)?;
        if node_count < 2 {
            return Err(CodecError::Malformed {
                context: "admission path too short",
            });
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let v = s.get_u32("admission path node")?;
            if v as usize >= graph.num_nodes() {
                return Err(CodecError::Malformed {
                    context: "admission path node out of range",
                });
            }
            nodes.push(NodeId(v));
        }
        let mut edges = Vec::with_capacity(node_count - 1);
        for _ in 0..node_count - 1 {
            let v = s.get_u32("admission path edge")?;
            if v as usize >= graph.num_edges() {
                return Err(CodecError::Malformed {
                    context: "admission path edge out of range",
                });
            }
            edges.push(EdgeId(v));
        }
        if let (Some(expiry), false) = (expires_at, released) {
            expiry_index.entry(expiry).or_default().push(i);
        }
        // Full structural validation against the live graph, not just
        // range checks: a forged path whose edges do not join its node
        // sequence would otherwise silently corrupt the residual loads
        // at the next TTL release (the checksum only guards against
        // storage corruption, not a hostile writer).
        let path = ufp_netgraph::path::Path::new(nodes, edges);
        if path.validate(&graph).is_err() {
            return Err(CodecError::Malformed {
                context: "admission path does not lie in the graph",
            });
        }
        let req = &requests[request as usize];
        if path.source() != req.src || path.target() != req.dst {
            return Err(CodecError::Malformed {
                context: "admission path endpoints disagree with its request",
            });
        }
        admissions.push(Admission {
            request: RequestId(request),
            path,
            epoch: adm_epoch,
            expires_at,
            payment,
            released,
            evicted,
        });
    }
    s.expect_exhausted()?;

    // Event log.
    let mut s = open_section(&mut r, SEC_EVENTS, "events section")?;
    let events_dropped = s.get_u64("dropped event count")?;
    let n = s.get_len("event count", 1)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(decode_event(&mut s)?);
    }
    s.expect_exhausted()?;

    // Metrics.
    let mut s = open_section(&mut r, SEC_METRICS, "metrics section")?;
    let m_epochs = s.get_u64("metrics epochs")?;
    let m_arrivals = s.get_u64("metrics arrivals")?;
    let m_accepted = s.get_u64("metrics accepted")?;
    let m_rejected = s.get_u64("metrics rejected")?;
    let m_released = s.get_u64("metrics released")?;
    let m_evicted = s.get_u64("metrics evicted")?;
    let m_value = s.get_f64("metrics value")?;
    let m_revenue = s.get_f64("metrics revenue")?;
    let m_refunded = s.get_f64("metrics refunded")?;
    let m_total_latency = s.get_u64("metrics total latency")?;
    let m_cursor = s.get_u64("metrics latency cursor")?;
    let m_window = s.get_u64_vec("metrics latency window")?;
    s.expect_exhausted()?;
    let cursor = usize::try_from(m_cursor).map_err(|_| CodecError::Malformed {
        context: "metrics latency cursor",
    })?;
    let metrics = EngineMetrics::from_snapshot(
        m_epochs,
        m_arrivals,
        m_accepted,
        m_rejected,
        m_released,
        m_evicted,
        m_value,
        m_revenue,
        m_refunded,
        m_total_latency,
        cursor,
        m_window,
    )
    .ok_or(CodecError::Malformed {
        context: "metrics invariants",
    })?;

    // Dynamic-topology overlay: replay the stored event log over the
    // base graph (every event re-validated against it), then cross-check
    // the replayed state against the stored (version, fingerprint) pair.
    // A forged log, a forged fingerprint, or a log that does not apply
    // to this graph all fail typed here — the overlay can never restore
    // to a state the snapshot did not pin.
    let mut s = open_section(&mut r, SEC_TOPOLOGY, "topology section")?;
    let topo_version = s.get_u64("topology version")?;
    let topo_fingerprint = s.get_u64("topology fingerprint")?;
    let n = s.get_len("topology event count", 5)?;
    let mut topo_events = Vec::with_capacity(n);
    for _ in 0..n {
        topo_events.push(decode_topology_event(&mut s)?);
    }
    s.expect_exhausted()?;
    let topology = Topology::replay(&graph, &topo_events).map_err(|_| CodecError::Malformed {
        context: "topology event log does not apply to the graph",
    })?;
    if topology.version() != topo_version {
        return Err(CodecError::Malformed {
            context: "topology version disagrees with its event log",
        });
    }
    if topology.fingerprint() != topo_fingerprint {
        return Err(CodecError::Malformed {
            context: "topology fingerprint disagrees with its event log",
        });
    }
    // Now the effective capacities are known: restore the residual
    // tracker over them (not the base capacities) so loads on resized
    // or failed links validate against what the live engine saw.
    let residual = ResidualCaps::import_with_caps(topology.effective_capacities(), loads).ok_or(
        CodecError::Malformed {
            context: "residual loads (length or range)",
        },
    )?;

    // Re-admission queue.
    let mut s = open_section(&mut r, SEC_READMIT, "readmit section")?;
    let n = s.get_len("readmit count", 25)?;
    let mut readmit_queue = Vec::with_capacity(n);
    for _ in 0..n {
        let src = s.get_u32("readmit src")?;
        let dst = s.get_u32("readmit dst")?;
        let demand = s.get_f64("readmit demand")?;
        let value = s.get_f64("readmit value")?;
        if src as usize >= graph.num_nodes() || dst as usize >= graph.num_nodes() || src == dst {
            return Err(CodecError::Malformed {
                context: "readmit endpoints",
            });
        }
        if !(demand.is_finite() && demand > 0.0 && value.is_finite() && value > 0.0) {
            return Err(CodecError::Malformed {
                context: "readmit request (demand/value range)",
            });
        }
        let request = Request {
            src: NodeId(src),
            dst: NodeId(dst),
            demand,
            value,
        };
        let ttl = if s.get_bool("readmit ttl flag")? {
            let t = s.get_u32("readmit ttl")?;
            if t == 0 {
                return Err(CodecError::Malformed {
                    context: "readmit ttl must be at least one epoch",
                });
            }
            Some(t)
        } else {
            None
        };
        readmit_queue.push(Arrival { request, ttl });
    }
    s.expect_exhausted()?;

    // Driver blob.
    let mut s = open_section(&mut r, SEC_DRIVER, "driver section")?;
    let driver = s.rest().to_vec();
    r.expect_exhausted()?;

    let allocator_config = config.allocator_config();
    // Health watermarks are telemetry about a single process's run and
    // are deliberately not in the snapshot: readmission ages restart at
    // the restore epoch, eviction windows start empty.
    let health = crate::health::HealthState::restored(readmit_queue.len(), epoch);
    Ok((
        Engine {
            graph,
            config,
            allocator_config,
            floor,
            residual,
            pending_release_cost: std::time::Duration::ZERO,
            carry,
            requests,
            admissions,
            expiry_index,
            epoch,
            events,
            events_dropped,
            metrics,
            topology,
            readmit_queue,
            health,
        },
        driver,
    ))
}

/// Report of a typed topology migration performed by
/// [`Engine::restore_with_topology`]: the snapshot's overlay was an
/// ancestor of the live one, and the missing event delta was replayed
/// through the normal repair pass (evictions, refunds, re-admission
/// queueing) to bring the restored engine onto the live topology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopologyMigration {
    /// Overlay version stored in the snapshot.
    pub from_version: u64,
    /// Overlay version after replaying the delta (the live version).
    pub to_version: u64,
    /// Admissions evicted by the delta.
    pub evicted: usize,
    /// Payments refunded for those evictions.
    pub refunded: f64,
    /// Evicted flows queued for re-admission in the next epoch.
    pub readmissions: usize,
}

fn check_bits(stored: f64, provided: f64, context: &'static str) -> Result<(), CodecError> {
    if stored.to_bits() != provided.to_bits() {
        return Err(CodecError::ConfigMismatch { context });
    }
    Ok(())
}

/// Inverse of [`encode_event`].
fn decode_event(s: &mut Reader<'_>) -> Result<EngineEvent, CodecError> {
    Ok(match s.get_u8("event tag")? {
        0 => EngineEvent::EpochStarted {
            epoch: s.get_u64("event epoch")?,
            arrivals: s.get_u64("event arrivals")? as usize,
        },
        1 => EngineEvent::Admitted {
            epoch: s.get_u64("event epoch")?,
            request: RequestId(s.get_u32("event request")?),
            hops: s.get_u64("event hops")? as usize,
            payment: s.get_f64("event payment")?,
        },
        2 => EngineEvent::Rejected {
            epoch: s.get_u64("event epoch")?,
            request: RequestId(s.get_u32("event request")?),
        },
        3 => EngineEvent::Released {
            epoch: s.get_u64("event epoch")?,
            request: RequestId(s.get_u32("event request")?),
        },
        5 => EngineEvent::Evicted {
            epoch: s.get_u64("event epoch")?,
            request: RequestId(s.get_u32("event request")?),
            refund: s.get_f64("event refund")?,
        },
        4 => EngineEvent::EpochCompleted {
            epoch: s.get_u64("event epoch")?,
            accepted: s.get_u64("event accepted")? as usize,
            rejected: s.get_u64("event rejected")? as usize,
            released: s.get_u64("event released")? as usize,
            value: s.get_f64("event value")?,
            revenue: s.get_f64("event revenue")?,
            stop: decode_stop(s.get_u8("event stop")?)?,
        },
        _ => {
            return Err(CodecError::Malformed {
                context: "event tag",
            })
        }
    })
}

// ---------------------------------------------------------------------
// SnapshotStore.
// ---------------------------------------------------------------------

/// A snapshot recovered by [`SnapshotStore::recover`].
#[derive(Debug)]
pub struct Recovered {
    /// The restored engine, ready to continue from `epoch + 1`.
    pub engine: Engine,
    /// The snapshot's epoch watermark: everything up to and including
    /// this epoch is inside the engine; the caller replays journaled
    /// arrivals for epochs strictly after it.
    pub epoch: u64,
    /// The opaque driver blob saved with the snapshot.
    pub driver: Vec<u8>,
    /// The file that was loaded.
    pub path: PathBuf,
    /// Newer snapshot files that were skipped as unreadable (typically a
    /// file half-written when the process died), with the typed reason.
    pub skipped: Vec<(PathBuf, CodecError)>,
}

/// Directory of epoch-stamped snapshot files, written atomically, paired
/// with the deployment's arrival journal (see the module docs for the
/// recovery model).
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

const SNAPSHOT_EXT: &str = "ufpsnap";

impl SnapshotStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CodecError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The canonical file name for a snapshot at `epoch`.
    pub fn path_for(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("snap-{epoch:012}.{SNAPSHOT_EXT}"))
    }

    /// Persist a snapshot of `engine` (no driver blob). See
    /// [`SnapshotStore::save_with`].
    pub fn save(&self, engine: &Engine) -> Result<PathBuf, CodecError> {
        self.save_with(engine, &[])
    }

    /// Persist a snapshot of `engine` plus an opaque driver blob,
    /// atomically and durably (see [`write_atomic`]): a crash mid-save
    /// leaves at worst a stale `.tmp` that recovery ignores — never a
    /// torn snapshot under the real name — and a completed save survives
    /// power loss.
    pub fn save_with(&self, engine: &Engine, driver: &[u8]) -> Result<PathBuf, CodecError> {
        let bytes = encode_engine(engine, driver);
        let path = self.path_for(engine.epoch());
        write_atomic(&path, &bytes)?;
        Ok(path)
    }

    /// Every snapshot file present as `(epoch, path)`, ascending by
    /// epoch. The returned paths are the actual directory entries — a
    /// non-canonically named file (say `snap-5.ufpsnap`, hand-copied
    /// from elsewhere) is still found under its real name.
    fn entries(&self) -> Result<Vec<(u64, PathBuf)>, CodecError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("snap-")
                .and_then(|s| s.strip_suffix(&format!(".{SNAPSHOT_EXT}")))
            else {
                continue;
            };
            // Bare digits only: `u64::parse` would also accept a
            // leading `+`, which the canonical writer never emits.
            if !stem.is_empty() && stem.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(epoch) = stem.parse::<u64>() {
                    out.push((epoch, entry.path()));
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Epoch watermarks of every snapshot file present, ascending.
    pub fn epochs(&self) -> Result<Vec<u64>, CodecError> {
        let mut epochs: Vec<u64> = self.entries()?.into_iter().map(|(e, _)| e).collect();
        epochs.dedup();
        Ok(epochs)
    }

    /// Restore from the newest loadable snapshot. Unreadable newer files
    /// — truncated or corrupted by a crash mid-write, written by an
    /// unknown format version, or failing the read itself (deleted by a
    /// concurrent retention pass, bad permissions) — are skipped with
    /// their typed reason; graph/config fingerprint mismatches are
    /// *caller* errors and propagate immediately. Returns `Ok(None)`
    /// when the store holds no snapshot at all — the caller then replays
    /// the journal from the beginning.
    pub fn recover(
        &self,
        graph: Arc<Graph>,
        config: EngineConfig,
    ) -> Result<Option<Recovered>, CodecError> {
        let mut skipped = Vec::new();
        for (_, path) in self.entries()?.into_iter().rev() {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    skipped.push((path, CodecError::Io(e)));
                    continue;
                }
            };
            match decode_engine(&bytes, Arc::clone(&graph), config.clone()) {
                Ok((engine, driver)) => {
                    return Ok(Some(Recovered {
                        epoch: engine.epoch(),
                        engine,
                        driver,
                        path,
                        skipped,
                    }))
                }
                Err(e @ (CodecError::ConfigMismatch { .. } | CodecError::GraphMismatch { .. })) => {
                    return Err(e)
                }
                Err(e) => skipped.push((path, e)),
            }
        }
        Ok(None)
    }
}
