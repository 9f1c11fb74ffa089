//! Sharded snapshot composition.
//!
//! A sharded deployment keeps one book — an ordinary
//! [`ufp_engine::Engine`] — so its snapshot is one checksummed
//! container holding:
//!
//! 1. the **layout pin**: shard count, partition digest and lease
//!    fraction. A snapshot never restores under a different partition
//!    or lease policy — every epoch after such a mismatch would misroute
//!    silently;
//! 2. the lease ledger;
//! 3. the per-shard request and admission counters behind
//!    [`crate::ShardStats`];
//! 4. the book's ordinary engine snapshot as one opaque blob, restored
//!    through the engine codec with all of its validation (topology
//!    log, loads, admissions, events, metrics, readmission queue).
//!
//! Restore cross-checks the counters against the book (their request
//! and admission totals must match it), so a blob spliced from another
//! run is a typed refusal. Every malformed input — truncation, a flipped
//! byte, version skew, a layout mismatch — returns a [`CodecError`];
//! nothing panics and nothing is half-restored.
//!
//! No wall-clock value is persisted: the per-shard planning time
//! ([`crate::ShardStats::epoch_time_us`]) is transient and restarts at 0
//! on restore, so equal input streams give equal snapshot bytes.
//!
//! This is format v5. v4 also stored the per-shard planning time, and
//! earlier versions held per-shard engines that no longer exist, so all
//! of them are refused with [`CodecError::UnsupportedVersion`].

use std::sync::Arc;

use ufp_engine::codec::{fnv64, CodecError, Reader, Writer};
use ufp_engine::snapshot::{encode_engine_into, write_atomic};
use ufp_engine::Engine;
use ufp_netgraph::graph::Graph;

use crate::engine::{ShardConfig, ShardCounters, ShardPlanner, ShardedEngine};
use crate::ledger::LeaseLedger;
use crate::partition::ShardPlan;

/// Container magic for sharded snapshots (distinct from the engine's).
const MAGIC: &[u8; 8] = b"UFPSHRD\0";
/// Bump on any change to the container layout.
const FORMAT_VERSION: u32 = 5;
/// Container header: magic, body length, body checksum.
const HEADER_LEN: usize = 24;

/// Serialize the sharded state, streamed into one buffer: the book's
/// container is encoded in place behind its length prefix, and the
/// header's length and checksum are patched last.
pub fn encode_sharded(engine: &ShardedEngine) -> Vec<u8> {
    let planner = &engine.planner;
    let mut w = Writer::new();
    w.put_raw(MAGIC);
    w.put_u64(0); // body length, patched below
    w.put_u64(0); // body checksum, patched below
    w.put_u32(FORMAT_VERSION);
    w.put_u64(planner.partition.shards() as u64);
    w.put_u64(planner.partition.digest());
    w.put_f64(planner.config.lease_fraction);
    let (ledger_flat, ledger_epochs) = planner.ledger.export();
    w.put_f64_slice(&ledger_flat);
    w.put_u64(ledger_epochs);
    let column = |f: fn(&ShardCounters) -> u64| planner.counters.iter().map(f).collect::<Vec<_>>();
    w.put_u64_slice(&column(|c| c.requests));
    w.put_u64_slice(&column(|c| c.admissions));
    let blob = w.begin_bytes();
    encode_engine_into(&mut w, &engine.book, &[]);
    w.end_bytes(blob);

    let body = w.as_bytes().len() - HEADER_LEN;
    let checksum = fnv64(&w.as_bytes()[HEADER_LEN..]);
    w.patch_u64(8, body as u64);
    w.patch_u64(16, checksum);
    w.into_bytes()
}

/// Deserialize a sharded snapshot over the given graph, partition, and
/// configuration. Fails with a typed [`CodecError`] — never a panic,
/// never a partially-restored engine — on corruption, version skew, or
/// a layout/config that does not match the snapshot's pins.
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
    let shards = plan.shards();
    if r.get_u64("shard count")? != shards as u64 {
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
    let ledger_flat = r.get_f64_vec("lease ledger")?;
    let ledger_epochs = r.get_u64("lease ledger epochs")?;
    let ledger = LeaseLedger::import(shards, ledger_flat, ledger_epochs)
        .ok_or(malformed("lease ledger (length or range)"))?;
    let requests = r.get_u64_vec("shard request counters")?;
    let admissions = r.get_u64_vec("shard admission counters")?;
    if requests.len() != shards + 1 || admissions.len() != shards + 1 {
        return Err(malformed("shard counters length"));
    }
    let blob = r.get_bytes("book snapshot")?;
    let book = Engine::restore_from_bytes(blob, graph, config.engine.clone())?;
    r.expect_exhausted()?;

    // The counters partition the book's requests and admissions, and
    // the ledger settled once per book epoch.
    let total = |c: &[u64]| c.iter().try_fold(0u64, |acc, &x| acc.checked_add(x));
    if total(&requests) != Some(book.num_requests() as u64) {
        return Err(malformed("shard request counters disagree with the book"));
    }
    if total(&admissions) != Some(book.admissions().len() as u64) {
        return Err(malformed("shard admission counters disagree with the book"));
    }
    if ledger.epochs() != book.epoch() {
        return Err(malformed("lease ledger epochs disagree with the book"));
    }
    let counters = (0..=shards)
        .map(|s| ShardCounters {
            requests: requests[s],
            admissions: admissions[s],
            epoch_time_us: 0,
        })
        .collect();
    Ok(ShardedEngine {
        book,
        planner: ShardPlanner::new(config, plan, ledger, counters),
    })
}

impl ShardedEngine {
    /// Serialize the sharded state (layout pin, ledger, counters, and
    /// the book's engine snapshot).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_sharded(self)
    }

    /// Restore from [`ShardedEngine::snapshot_bytes`] output.
    /// Continuation is bit-identical: submitting the same post-snapshot
    /// batches reproduces the uninterrupted run's admissions, payments,
    /// events, and metrics exactly.
    pub fn restore_from_bytes(
        bytes: &[u8],
        graph: Arc<Graph>,
        plan: ShardPlan,
        config: ShardConfig,
    ) -> Result<ShardedEngine, CodecError> {
        decode_sharded(bytes, graph, plan, config)
    }

    /// Write a snapshot to `path` atomically and durably (see
    /// [`Engine::snapshot_to`]).
    pub fn snapshot_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), CodecError> {
        write_atomic(path.as_ref(), &self.snapshot_bytes())
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
