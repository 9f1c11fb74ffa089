//! The capacity-lease ledger.
//!
//! Boundary edges are shared between two shards. Each epoch, the
//! sharded engine grants every adjacent shard a **lease** — a fraction
//! of the edge's current global residual — and each shard's epoch runs
//! against its lease as that edge's capacity, so parallel shard epochs
//! can never jointly oversubscribe a boundary edge:
//!
//! ```text
//! Σ_shards lease_s(e)  =  lease_fraction · residual(e)  ≤  residual(e)
//! ```
//!
//! After the epoch, actual boundary use settles back into the ledger:
//! per shard, how much leased capacity was granted and how much was
//! committed. Under-use needs no explicit return — the next epoch's
//! leases are cut from the *actual* global residuals, so unspent lease
//! capacity is automatically back in the pool (and visible to the
//! cross-shard reconciliation pass, which runs against full residuals).
//! Over-use is structurally impossible (the lease *is* the capacity the
//! shard's allocator sees) and is asserted against.

/// Cumulative lease accounting, per shard.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LeaseLedger {
    /// Lease capacity granted to each shard, summed over epochs and
    /// boundary edges.
    granted: Vec<f64>,
    /// Leased capacity actually committed by each shard, same units.
    used: Vec<f64>,
    /// Last epoch's grants per shard.
    last_granted: Vec<f64>,
    /// Last epoch's committed use per shard.
    last_used: Vec<f64>,
    /// Epochs settled.
    epochs: u64,
}

impl LeaseLedger {
    /// A fresh ledger for `shards` shards.
    pub fn new(shards: usize) -> Self {
        LeaseLedger {
            granted: vec![0.0; shards],
            used: vec![0.0; shards],
            last_granted: vec![0.0; shards],
            last_used: vec![0.0; shards],
            epochs: 0,
        }
    }

    /// Settle one epoch: per-shard grant totals and committed use.
    pub fn settle_epoch(&mut self, granted: &[f64], used: &[f64]) {
        assert_eq!(granted.len(), self.granted.len());
        assert_eq!(used.len(), self.used.len());
        for s in 0..granted.len() {
            debug_assert!(
                used[s] <= granted[s] * (1.0 + 1e-9) + 1e-9,
                "shard {s} over-used its lease: {} > {}",
                used[s],
                granted[s]
            );
            self.granted[s] += granted[s];
            self.used[s] += used[s];
            self.last_granted[s] = granted[s];
            self.last_used[s] = used[s];
        }
        self.epochs += 1;
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.granted.len()
    }

    /// Epochs settled so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Cumulative lease capacity granted to shard `s`.
    pub fn granted(&self, s: usize) -> f64 {
        self.granted[s]
    }

    /// Cumulative leased capacity committed by shard `s`.
    pub fn used(&self, s: usize) -> f64 {
        self.used[s]
    }

    /// Lifetime lease utilization of shard `s` (`used / granted`, 0 when
    /// nothing was ever granted — e.g. no boundary edges touch `s`).
    pub fn utilization(&self, s: usize) -> f64 {
        if self.granted[s] <= 0.0 {
            0.0
        } else {
            self.used[s] / self.granted[s]
        }
    }

    /// Serializable state, flattened in a fixed field order (granted,
    /// used, last_granted, last_used per shard, then the epoch count).
    pub fn export(&self) -> (Vec<f64>, u64) {
        let mut flat = Vec::with_capacity(self.granted.len() * 4);
        flat.extend_from_slice(&self.granted);
        flat.extend_from_slice(&self.used);
        flat.extend_from_slice(&self.last_granted);
        flat.extend_from_slice(&self.last_used);
        (flat, self.epochs)
    }

    /// Rebuild from [`LeaseLedger::export`] output. `None` when the
    /// flattened length does not match `shards` or holds non-finite
    /// entries.
    pub fn import(shards: usize, flat: Vec<f64>, epochs: u64) -> Option<Self> {
        if flat.len() != shards * 4 || flat.iter().any(|x| !x.is_finite()) {
            return None;
        }
        Some(LeaseLedger {
            granted: flat[..shards].to_vec(),
            used: flat[shards..2 * shards].to_vec(),
            last_granted: flat[2 * shards..3 * shards].to_vec(),
            last_used: flat[3 * shards..].to_vec(),
            epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settlement_accumulates() {
        let mut l = LeaseLedger::new(2);
        l.settle_epoch(&[10.0, 4.0], &[2.5, 4.0]);
        l.settle_epoch(&[8.0, 0.0], &[8.0, 0.0]);
        assert_eq!(l.epochs(), 2);
        assert_eq!(l.granted(0), 18.0);
        assert_eq!(l.used(0), 10.5);
        assert_eq!((l.last_granted[0], l.last_used[0]), (8.0, 8.0));
        assert!((l.utilization(0) - 10.5 / 18.0).abs() < 1e-12);
        assert_eq!(l.utilization(1), 1.0);
    }

    #[test]
    fn zero_grant_utilization_is_zero() {
        let l = LeaseLedger::new(1);
        assert_eq!(l.utilization(0), 0.0);
    }

    #[test]
    fn export_import_round_trips() {
        let mut l = LeaseLedger::new(3);
        l.settle_epoch(&[1.0, 2.0, 3.0], &[0.5, 2.0, 0.0]);
        let (flat, epochs) = l.export();
        let back = LeaseLedger::import(3, flat, epochs).expect("valid export");
        assert_eq!(back, l);
        assert!(LeaseLedger::import(2, l.export().0, 1).is_none());
    }
}
