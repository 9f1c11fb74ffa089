//! Sharded snapshot composition.
//!
//! A sharded snapshot is one checksummed container holding the
//! orchestrator's own state (global carry, loads, request map,
//! admission ledger, events, metrics, lease ledger) followed by each
//! engine's ordinary [`ufp_engine`] snapshot as an opaque blob — the
//! per-shard snapshots restore through the engine codec with all of its
//! validation, and the orchestrator section pins the **shard layout**
//! (shard count + partition digest + lease fraction + payment scope)
//! so a snapshot can never restore under a different partition or
//! pricing mode: every epoch after such a mismatch would misroute (or
//! misprice) silently. Payments themselves need no extra state here —
//! the global pass settles within `submit_batch`, so each winner's
//! globally-priced payment already lives in its owning engine's
//! admission blob.
//!
//! Restore = rebuild each engine, then the global view; continuation is
//! bit-identical per shard (proptested in `tests/proptests.rs`).

use std::sync::Arc;

use ufp_core::{Request, RequestId};
use ufp_engine::codec::{fnv64, CodecError, Reader, Writer};
use ufp_engine::snapshot::{
    decode_event, decode_topology_event, encode_engine_into, encode_event, encode_topology_event,
};
use ufp_engine::{Arrival, Engine, EngineMetrics};
use ufp_netgraph::graph::Graph;
use ufp_netgraph::ids::NodeId;
use ufp_netgraph::residual::ResidualCaps;
use ufp_netgraph::topology::Topology;

use crate::engine::{lease_gauge_names, PaymentScope, ShardAdmission, ShardConfig, ShardedEngine};
use crate::ledger::LeaseLedger;
use crate::partition::ShardPlan;

/// Container magic for sharded snapshots (distinct from the engine's).
const MAGIC: &[u8; 8] = b"UFPSHRD\0";
/// Bump on any change to the orchestrator section layout.
/// v2: the payment scope joined the pinned shard layout.
/// v3: the dynamic-topology overlay (version + fingerprint + event
/// log) and the re-admission queue joined the orchestrator section;
/// global loads now validate against the *effective* capacities, and
/// restoring onto a mutated topology is a typed refusal.
const FORMAT_VERSION: u32 = 3;

/// Wire tag for [`PaymentScope`] (pinned like the lease fraction: a
/// snapshot restored under a different pricing mode would silently
/// change every later epoch's payments).
fn payment_scope_tag(scope: PaymentScope) -> u8 {
    match scope {
        PaymentScope::GlobalTrace => 0,
        PaymentScope::ShardLocal => 1,
    }
}

/// Container header: magic, body length, body checksum.
const HEADER_LEN: usize = 24;

/// Serialize the full sharded engine state, streamed into one buffer:
/// the engine containers are encoded in place behind their length
/// prefixes, and the header's length and checksum are patched last.
pub fn encode_sharded(engine: &ShardedEngine) -> Vec<u8> {
    let shards = engine.plan.shards();
    let mut w = Writer::new();
    w.put_raw(MAGIC);
    w.put_u64(0); // body length, patched below
    w.put_u64(0); // body checksum, patched below
    w.put_u32(FORMAT_VERSION);
    w.put_u64(shards as u64);
    w.put_u64(engine.plan.digest());
    w.put_f64(engine.config.lease_fraction);
    w.put_u8(payment_scope_tag(engine.config.payment_scope));
    // Dynamic-topology overlay: full event log plus the (version,
    // fingerprint) pair restore replays to and cross-checks — same
    // scheme as the engine snapshot's topology section.
    w.put_u64(engine.topology.version());
    w.put_u64(engine.topology.fingerprint());
    w.put_u64(engine.topology.log().len() as u64);
    for e in engine.topology.log() {
        encode_topology_event(&mut w, e);
    }
    // Orchestrator re-admission queue.
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
    w.put_u64(engine.epoch);
    w.put_f64_slice(&engine.carry);
    w.put_f64_slice(engine.residual.loads());
    w.put_u64(engine.request_map.len() as u64);
    for &(owner, local) in &engine.request_map {
        w.put_u32(owner);
        w.put_u32(local);
    }
    w.put_u64(engine.admissions.len() as u64);
    for sa in &engine.admissions {
        w.put_u32(sa.owner);
        w.put_u32(sa.local_index);
        w.put_u32(sa.request.0);
    }
    w.put_u64(engine.events_dropped);
    w.put_u64(engine.events.len() as u64);
    for e in &engine.events {
        encode_event(&mut w, e);
    }
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
    w.put_u64(m.total_latency_us());
    let (ring, cursor) = m.latency_ring();
    w.put_u64(cursor as u64);
    w.put_u64_slice(ring);
    let (ledger_flat, ledger_epochs) = engine.ledger.export();
    w.put_f64_slice(&ledger_flat);
    w.put_u64(ledger_epochs);
    w.put_u64_slice(&engine.shard_epoch_us);
    for e in engine.engines.iter().chain([&engine.reconciler]) {
        let blob = w.begin_bytes();
        encode_engine_into(&mut w, e, &[]);
        w.end_bytes(blob);
    }

    let body = w.as_bytes().len() - HEADER_LEN;
    let checksum = fnv64(&w.as_bytes()[HEADER_LEN..]);
    w.patch_u64(8, body as u64);
    w.patch_u64(16, checksum);
    w.into_bytes()
}

/// Deserialize a sharded snapshot over the given graph, partition, and
/// configuration. Fails with a typed [`CodecError`] — never a panic,
/// never a partially-restored engine — on corruption, version skew, or
/// a layout/config that does not match the snapshot's fingerprints.
pub fn decode_sharded(
    bytes: &[u8],
    graph: Arc<Graph>,
    plan: ShardPlan,
    config: ShardConfig,
) -> Result<ShardedEngine, CodecError> {
    config.validate();
    let malformed = |context: &'static str| CodecError::Malformed { context };
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        let mut found = [0u8; 8];
        let n = bytes.len().min(8);
        found[..n].copy_from_slice(&bytes[..n]);
        return Err(CodecError::BadMagic { found });
    }
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            context: "sharded snapshot header",
            need: HEADER_LEN,
            have: bytes.len(),
        });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let body = &bytes[HEADER_LEN..];
    if body.len() != len {
        return Err(CodecError::Truncated {
            context: "sharded snapshot body",
            need: len,
            have: body.len(),
        });
    }
    let computed = fnv64(body);
    if computed != checksum {
        return Err(CodecError::ChecksumMismatch {
            stored: checksum,
            computed,
        });
    }
    let mut r = Reader::new(body);
    let version = r.get_u32("sharded format version")?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let shards = r.get_u64("shard count")? as usize;
    if shards != plan.shards() {
        return Err(CodecError::ConfigMismatch {
            context: "shard count",
        });
    }
    if r.get_u64("partition digest")? != plan.digest() {
        return Err(CodecError::ConfigMismatch {
            context: "partition digest",
        });
    }
    if r.get_f64("lease fraction")?.to_bits() != config.lease_fraction.to_bits() {
        return Err(CodecError::ConfigMismatch {
            context: "lease fraction",
        });
    }
    if r.get_u8("payment scope")? != payment_scope_tag(config.payment_scope) {
        return Err(CodecError::ConfigMismatch {
            context: "payment scope",
        });
    }
    // Dynamic-topology overlay: replay the stored log over the base
    // graph and cross-check the pinned (version, fingerprint) pair —
    // same validation as the engine snapshot's topology section.
    let topo_version = r.get_u64("topology version")?;
    let topo_fingerprint = r.get_u64("topology fingerprint")?;
    let n = r.get_len("topology event count", 5)?;
    let mut topo_events = Vec::with_capacity(n);
    for _ in 0..n {
        topo_events.push(decode_topology_event(&mut r)?);
    }
    let topology = Topology::replay(&graph, &topo_events)
        .map_err(|_| malformed("topology event log does not apply to the graph"))?;
    if topology.version() != topo_version {
        return Err(malformed("topology version disagrees with its event log"));
    }
    if topology.fingerprint() != topo_fingerprint {
        return Err(malformed(
            "topology fingerprint disagrees with its event log",
        ));
    }
    let n = r.get_len("readmit count", 25)?;
    let mut readmit_queue = Vec::with_capacity(n);
    for _ in 0..n {
        let src = r.get_u32("readmit src")?;
        let dst = r.get_u32("readmit dst")?;
        let demand = r.get_f64("readmit demand")?;
        let value = r.get_f64("readmit value")?;
        if src as usize >= graph.num_nodes() || dst as usize >= graph.num_nodes() || src == dst {
            return Err(malformed("readmit endpoints"));
        }
        if !(demand.is_finite() && demand > 0.0 && value.is_finite() && value > 0.0) {
            return Err(malformed("readmit request (demand/value range)"));
        }
        let request = Request {
            src: NodeId(src),
            dst: NodeId(dst),
            demand,
            value,
        };
        let ttl = if r.get_bool("readmit ttl flag")? {
            let t = r.get_u32("readmit ttl")?;
            if t == 0 {
                return Err(malformed("readmit ttl must be at least one epoch"));
            }
            Some(t)
        } else {
            None
        };
        readmit_queue.push(Arrival { request, ttl });
    }
    let epoch = r.get_u64("epoch counter")?;
    let carry = r.get_f64_vec("global carry")?;
    if carry.len() != graph.num_edges() || carry.iter().any(|k| !k.is_finite() || *k < 0.0) {
        return Err(malformed("global carry (length or range)"));
    }
    let loads = r.get_f64_vec("global loads")?;
    // Loads validate against the *effective* (overlay) capacities, not
    // the base graph's — a resized or failed link carries different
    // headroom than the base capacity suggests.
    let residual = ResidualCaps::import_with_caps(topology.effective_capacities(), loads)
        .ok_or(malformed("global loads (length or range)"))?;
    let n = r.get_len("request map length", 8)?;
    let mut request_map = Vec::with_capacity(n);
    for _ in 0..n {
        let owner = r.get_u32("request owner")?;
        if owner as usize > shards {
            return Err(malformed("request owner out of range"));
        }
        request_map.push((owner, r.get_u32("request local id")?));
    }
    let n = r.get_len("admission count", 12)?;
    let mut admissions = Vec::with_capacity(n);
    for _ in 0..n {
        let owner = r.get_u32("admission owner")?;
        if owner as usize > shards {
            return Err(malformed("admission owner out of range"));
        }
        admissions.push(ShardAdmission {
            owner,
            local_index: r.get_u32("admission local index")?,
            request: RequestId(r.get_u32("admission request")?),
        });
    }
    let events_dropped = r.get_u64("dropped event count")?;
    let n = r.get_len("event count", 1)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(decode_event(&mut r)?);
    }
    let m_epochs = r.get_u64("metrics epochs")?;
    let m_arrivals = r.get_u64("metrics arrivals")?;
    let m_accepted = r.get_u64("metrics accepted")?;
    let m_rejected = r.get_u64("metrics rejected")?;
    let m_released = r.get_u64("metrics released")?;
    let m_evicted = r.get_u64("metrics evicted")?;
    let m_value = r.get_f64("metrics value")?;
    let m_revenue = r.get_f64("metrics revenue")?;
    let m_refunded = r.get_f64("metrics refunded")?;
    let m_total_latency = r.get_u64("metrics total latency")?;
    let m_cursor = r.get_u64("metrics latency cursor")? as usize;
    let m_window = r.get_u64_vec("metrics latency window")?;
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
        m_cursor,
        m_window,
    )
    .ok_or(malformed("metrics invariants"))?;
    let ledger_flat = r.get_f64_vec("lease ledger")?;
    let ledger_epochs = r.get_u64("lease ledger epochs")?;
    let ledger = LeaseLedger::import(shards, ledger_flat, ledger_epochs)
        .ok_or(malformed("lease ledger (length or range)"))?;
    let shard_epoch_us = r.get_u64_vec("shard epoch timings")?;
    if shard_epoch_us.len() != shards + 1 {
        return Err(malformed("shard epoch timings length"));
    }
    let mut engines = Vec::with_capacity(shards);
    for _ in 0..shards {
        let blob = r.get_bytes("shard engine snapshot")?;
        engines.push(Engine::restore_from_bytes(
            blob,
            Arc::clone(&graph),
            config.engine.clone(),
        )?);
    }
    let blob = r.get_bytes("reconciler snapshot")?;
    let reconciler = Engine::restore_from_bytes(blob, Arc::clone(&graph), config.engine.clone())?;
    r.expect_exhausted()?;

    // Every owned engine's mirrored overlay must agree with the
    // orchestrator's — a spliced snapshot mixing engines from different
    // topology histories would desynchronize the eviction authority.
    for e in engines.iter().chain(std::iter::once(&reconciler)) {
        if e.topology().fingerprint() != topology.fingerprint() {
            return Err(malformed(
                "engine topology diverges from the orchestrator's",
            ));
        }
    }

    // Cross-validate the global view against the restored engines: every
    // map entry must point at a real request / admission.
    let mut requests = Vec::with_capacity(request_map.len());
    let pick = |owner: u32| -> &Engine {
        if owner as usize == shards {
            &reconciler
        } else {
            &engines[owner as usize]
        }
    };
    for &(owner, local) in &request_map {
        let reg = pick(owner).requests();
        let req = reg
            .get(local as usize)
            .ok_or(malformed("request map points past owner registry"))?;
        requests.push(*req);
    }
    let mut admission_lookup = std::collections::HashMap::new();
    for (i, sa) in admissions.iter().enumerate() {
        if pick(sa.owner)
            .admissions()
            .get(sa.local_index as usize)
            .is_none()
        {
            return Err(malformed("admission ledger points past owner admissions"));
        }
        if sa.request.index() >= requests.len() {
            return Err(malformed("admission ledger request out of range"));
        }
        admission_lookup.insert((sa.owner, sa.local_index), i as u32);
    }

    let floor = config
        .engine
        .residual_floor
        .resolve(graph.num_edges(), config.engine.epsilon);
    Ok(ShardedEngine {
        graph,
        config,
        plan,
        engines,
        reconciler,
        floor,
        residual,
        carry,
        requests,
        request_map,
        admissions,
        admission_lookup,
        epoch,
        events,
        events_dropped,
        metrics,
        ledger,
        topology,
        // Health watermarks are per-process telemetry, not snapshotted:
        // readmission ages restart at the restore epoch.
        health: ufp_engine::health::HealthState::restored(readmit_queue.len(), epoch),
        readmit_queue,
        shard_epoch_us,
        lease_gauge_names: lease_gauge_names(shards),
    })
}

impl ShardedEngine {
    /// Serialize the full sharded state (orchestrator section + one
    /// engine snapshot per shard + the reconciler's).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_sharded(self)
    }

    /// Restore from [`ShardedEngine::snapshot_bytes`] output.
    /// Continuation is bit-identical per shard and globally: submitting
    /// the same post-snapshot batches reproduces the uninterrupted
    /// run's admissions, payments, events, and metrics exactly.
    pub fn restore_from_bytes(
        bytes: &[u8],
        graph: Arc<Graph>,
        plan: ShardPlan,
        config: ShardConfig,
    ) -> Result<ShardedEngine, CodecError> {
        decode_sharded(bytes, graph, plan, config)
    }

    /// Write a snapshot to `path` atomically (temp file + rename).
    pub fn snapshot_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), CodecError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.snapshot_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Restore from a snapshot file written by
    /// [`ShardedEngine::snapshot_to`].
    pub fn restore_from(
        path: impl AsRef<std::path::Path>,
        graph: Arc<Graph>,
        plan: ShardPlan,
        config: ShardConfig,
    ) -> Result<ShardedEngine, CodecError> {
        let bytes = std::fs::read(path)?;
        Self::restore_from_bytes(&bytes, graph, plan, config)
    }
}
