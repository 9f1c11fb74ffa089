//! Sharded snapshots: the book's own engine container.
//!
//! A sharded deployment keeps one book — an ordinary
//! [`ufp_engine::Engine`] — so its snapshot is the book's snapshot, with
//! the shard planner's state in the book's opaque driver section:
//!
//! 1. the **layout pin**: shard count, partition digest and lease
//!    fraction. A snapshot never restores under a different partition
//!    or lease policy — every epoch after such a mismatch would misroute
//!    silently;
//! 2. the lease ledger;
//! 3. the per-shard request and admission counters behind
//!    [`crate::ShardStats`].
//!
//! Restore runs the engine codec first, with all of its validation
//! (container checksum, topology log, loads, admissions, events,
//! metrics, readmission queue), then decodes the planner state and
//! cross-checks it against the book: the counters' request and
//! admission totals must match the book's, and the ledger must have
//! settled once per book epoch. So planner state spliced from another
//! run, or a driver blob that is not planner state at all (a plain
//! engine snapshot, `engine_sim`'s trace cursor), is a typed refusal.
//! Every malformed input — truncation, a flipped byte, version skew, a
//! layout mismatch — returns a [`CodecError`]; nothing panics and
//! nothing is half-restored.
//!
//! No wall-clock value is persisted: the per-shard planning time
//! ([`crate::ShardStats::epoch_time_us`]) is transient and restarts at 0
//! on restore, so equal input streams give equal snapshot bytes.
//!
//! Sharded snapshots have no format version of their own: they are
//! engine containers and follow [`ufp_engine::codec::FORMAT_VERSION`].
//! Files from the earlier, separately framed sharded container carry a
//! different magic and fail with [`CodecError::BadMagic`].

use std::sync::Arc;

use ufp_engine::codec::{CodecError, Reader, Writer};
use ufp_engine::Engine;
use ufp_netgraph::graph::Graph;

use crate::engine::{ShardConfig, ShardCounters, ShardPlanner, ShardedEngine};
use crate::ledger::LeaseLedger;
use crate::partition::ShardPlan;

impl ShardedEngine {
    /// Serialize the deployment: the book's engine snapshot, carrying
    /// the planner state (layout pin, ledger, counters) as its driver
    /// blob.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let planner = &self.planner;
        let mut w = Writer::new();
        w.put_u64(planner.partition.shards() as u64);
        w.put_u64(planner.partition.digest());
        w.put_f64(planner.config.lease_fraction);
        let (ledger_flat, ledger_epochs) = planner.ledger.export();
        w.put_f64_slice(&ledger_flat);
        w.put_u64(ledger_epochs);
        let column =
            |f: fn(&ShardCounters) -> u64| planner.counters.iter().map(f).collect::<Vec<_>>();
        w.put_u64_slice(&column(|c| c.requests));
        w.put_u64_slice(&column(|c| c.admissions));
        self.book.snapshot_bytes_with(w.as_bytes())
    }

    /// Restore from [`ShardedEngine::snapshot_bytes`] output over the
    /// given graph, partition, and configuration. Continuation is
    /// bit-identical: submitting the same post-snapshot batches
    /// reproduces the uninterrupted run's admissions, payments, events,
    /// and metrics exactly. Fails with a typed [`CodecError`] — never a
    /// panic, never a partially-restored engine — on corruption, version
    /// skew, or a layout/config that does not match the snapshot's pins.
    pub fn restore_from_bytes(
        bytes: &[u8],
        graph: Arc<Graph>,
        plan: ShardPlan,
        config: ShardConfig,
    ) -> Result<ShardedEngine, CodecError> {
        config.validate();
        let malformed = |context: &'static str| CodecError::Malformed { context };
        let (book, blob) =
            Engine::restore_from_bytes_with_driver(bytes, graph, config.engine.clone())?;
        let mut r = Reader::new(&blob);
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
}
