//! The sharded in-flight operation index: which uncommitted operations are
//! currently outstanding, readable without the structure lock.
//!
//! The seed runtime kept one flat [`OperationLog`](crate::OperationLog)
//! behind the same mutex protecting the data structure. The index replaces
//! it with the sharded claim-table discipline of `prover::queue`:
//! transactions hash into one of [`N_SHARDS`] `RwLock`-protected maps keyed
//! by transaction id, each map holding that transaction's published
//! operations in execution order.
//!
//! * **Admission reads** take one shard read lock at a time and clone the
//!   `Arc`s out; conditions are evaluated outside any shard lock.
//! * **Publishing** (one write lock on the publisher's own shard) happens
//!   while the publisher holds the structure lock, which makes
//!   apply-and-publish atomic. The executor's admission pass reads the index
//!   while holding that same lock, so it sees every entry whose effect is in
//!   the state it admits against.
//! * **Commit** removes the transaction's slot from its own shard — O(own
//!   operations), no structure lock, no scan of anyone else's entries.
//!
//! * **Scans** visit only *occupied* shards: a bitmap with one bit per shard
//!   says which shards hold any slot, so an admission pass over a mostly
//!   idle index read-locks the one or two shards that matter instead of all
//!   sixteen.
//!
//! Lock order: the structure mutex, if held, is always acquired *before* any
//! shard lock, and no path acquires the structure mutex while holding a
//! shard lock.
//!
//! # Why a scan cannot miss an entry it must see
//!
//! The bitmap is one atomic word. A shard's bit is set by
//! [`publish`](InFlightIndex::publish) and cleared by a
//! [`remove`](InFlightIndex::remove) that leaves the shard empty, both while
//! holding that shard's write lock, so per shard the bit changes in the same
//! order as the shard's contents and, at every shard-lock release, equals
//! "the shard is non-empty". Both updates are read-modify-writes, so updates
//! to different shards' bits never overwrite each other.
//!
//! Every publish runs while the publisher holds the structure lock. The
//! executor's locked admission pass loads the bitmap while holding that
//! lock too, so each publish whose effect is in the state the pass admits
//! against happens-before the load (mutex release/acquire). By coherence
//! the load then reads that bit-set or a later write to the bit, and a later
//! write that clears it is a removal that emptied the shard — of committed
//! or rolled-back entries. No publish can land between the load and the
//! shard reads, because none can run while the pass holds the structure
//! lock. So the locked pass sees every live entry, exactly as a scan of all
//! shards would.
//!
//! Skipping a committed entry is not free of ordering, though. A commit
//! draws its commit ticket *before* removing its slot, and the ticket order
//! is the replay order: a transaction admitted because a non-commuting
//! entry is gone must draw a larger ticket than the transaction that owned
//! it. When the scan read-locks the shard, the shard lock's release/acquire
//! carries that order. When the scan skips the shard because the removal
//! cleared its bit, only the bitmap can: so the clearing `fetch_and` is
//! `Release` and every bitmap load is `Acquire`. A load that reads the clear
//! — or any later value, since every later update is a read-modify-write
//! and so continues the clear's release sequence — synchronizes with the
//! remover, whose ticket increment then happens-before the admitted
//! transaction's own, later, increment. With `Relaxed` accesses this is the
//! message-passing shape the IMM model (Podkopaev et al., PAPERS.md) lets
//! fail: on a weakly ordered machine the ticket increment could become
//! visible after the bit clear, and replay in ticket order would diverge.
//! The setting `fetch_or` needs no ordering of its own: publishes are
//! ordered by the structure lock, and its read-modify-write keeps any
//! earlier clear's release sequence intact.
//!
//! The lock-free pre-screen loads the bitmap without the structure lock, so
//! it can read a stale zero and skip a shard a concurrent publisher has just
//! filled. That can only hide entries from the pre-screen, which is advisory
//! — it may reject, never admit — and the locked pass re-checks everything.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::log::LogEntry;

/// Shard count of the index. Sixteen matches the prover's verdict-cache and
/// claim-table split and keeps publisher/reader collisions rare at the
/// thread counts the runtime targets.
pub const N_SHARDS: usize = 16;

// One occupancy bit per shard in an `AtomicU32`.
const _: () = assert!(N_SHARDS <= 32);

/// One published operation: a log entry tagged with its resolved operation
/// index.
#[derive(Debug)]
pub struct PublishedOp {
    /// The logged operation's dense index in the gatekeeper's operation
    /// universe, resolved once when the operation executes so admission never
    /// hashes the operation name (see
    /// [`CommutativityGatekeeper::op_index`](crate::CommutativityGatekeeper::op_index)).
    pub op_idx: u16,
    /// The logged operation.
    pub entry: LogEntry,
}

type Shard = RwLock<HashMap<u64, Vec<Arc<PublishedOp>>>>;

/// The sharded index of uncommitted transactions' published operations.
#[derive(Default)]
pub struct InFlightIndex {
    shards: [Shard; N_SHARDS],
    /// Cached total of published operations, maintained by
    /// [`publish`](InFlightIndex::publish) / [`remove`](InFlightIndex::remove)
    /// under the respective shard's write lock. Before this cache,
    /// [`len`](InFlightIndex::len) read-locked all sixteen shards and summed
    /// slot lengths — an O(shards + entries) scan on what stats dashboards
    /// and the runtime-monitoring loops treat as a cheap gauge.
    count: AtomicUsize,
    /// Bit `i` is set iff shard `i` holds a slot — set by `publish`,
    /// cleared by a `remove` that empties the shard, both under the shard's
    /// write lock (see the module docs for the memory orderings).
    occupied: AtomicU32,
}

impl std::fmt::Debug for InFlightIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InFlightIndex")
            .field("published_ops", &self.len())
            .finish()
    }
}

impl InFlightIndex {
    /// Creates an empty index.
    pub fn new() -> InFlightIndex {
        InFlightIndex::default()
    }

    fn shard_of(txn: u64) -> usize {
        (txn % N_SHARDS as u64) as usize
    }

    /// Appends a published operation to `txn`'s slot (creating the slot on
    /// the transaction's first operation) and marks the shard occupied.
    pub fn publish(&self, txn: u64, op: Arc<PublishedOp>) {
        let shard = Self::shard_of(txn);
        let mut guard = self.shards[shard].write();
        guard.entry(txn).or_default().push(op);
        self.occupied.fetch_or(1 << shard, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes `txn`'s slot, returning how many operations it held, and
    /// marks the shard unoccupied if that was its last slot. A transaction
    /// that never published has no slot; removing it touches no lock state
    /// beyond its own shard.
    pub fn remove(&self, txn: u64) -> usize {
        let shard = Self::shard_of(txn);
        let mut guard = self.shards[shard].write();
        let removed = guard.remove(&txn).map_or(0, |entries| entries.len());
        if removed > 0 {
            if guard.is_empty() {
                // `Release`: a scan that skips the shard on this clear must
                // also see the remover's commit ticket (module docs).
                self.occupied.fetch_and(!(1 << shard), Ordering::Release);
            }
            self.count.fetch_sub(removed, Ordering::Relaxed);
        }
        removed
    }

    /// All operations of transactions other than `txn`, as `Arc` clones,
    /// into a caller-supplied buffer (cleared first) — the executor reuses
    /// one buffer per transaction so admission allocates nothing, and
    /// evaluates conditions against the clones without holding any shard
    /// lock. Only the shards the occupancy bitmap marks are read-locked;
    /// the module docs argue why the locked admission pass still sees every
    /// live entry.
    pub fn others_into(&self, txn: u64, out: &mut Vec<Arc<PublishedOp>>) {
        out.clear();
        let mut occupied = self.occupied.load(Ordering::Acquire);
        while occupied != 0 {
            let shard = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            let guard = self.shards[shard].read();
            for (&owner, entries) in guard.iter() {
                if owner != txn {
                    out.extend(entries.iter().cloned());
                }
            }
        }
    }

    /// The all-shard scan [`others_into`](InFlightIndex::others_into)
    /// replaced, kept as the test oracle for the occupancy bitmap.
    #[cfg(test)]
    fn others_by_full_scan(&self, txn: u64) -> Vec<Arc<PublishedOp>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (&owner, entries) in shard.read().iter() {
                if owner != txn {
                    out.extend(entries.iter().cloned());
                }
            }
        }
        out
    }

    /// The total number of published (uncommitted) operations — an O(1)
    /// atomic load of the cached count.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// The O(shards + entries) recount [`len`](InFlightIndex::len) replaced,
    /// kept as the test oracle for the cached count.
    #[cfg(test)]
    fn len_by_scan(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Whether no uncommitted operations are outstanding.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::Value;

    fn op(txn: u64, elem: u64) -> Arc<PublishedOp> {
        Arc::new(PublishedOp {
            op_idx: 0,
            entry: LogEntry {
                txn,
                op: "add".into(),
                args: vec![Value::elem(elem as u32)],
                result: Some(Value::Bool(true)),
                pre_state: None,
            },
        })
    }

    #[test]
    fn publish_remove_and_counts() {
        let index = InFlightIndex::new();
        assert!(index.is_empty());
        index.publish(1, op(1, 1));
        index.publish(2, op(2, 2));
        index.publish(1, op(1, 3));
        assert_eq!(index.len(), 3);
        assert_eq!(index.remove(1), 2);
        assert_eq!(index.remove(1), 0);
        assert_eq!(index.len(), 1);
        assert_eq!(index.len(), index.len_by_scan());
    }

    #[test]
    fn cached_len_matches_a_full_scan_under_concurrent_churn() {
        let index = Arc::new(InFlightIndex::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let index = Arc::clone(&index);
                scope.spawn(move || {
                    for round in 0..200u64 {
                        let txn = t * 1_000 + round;
                        index.publish(txn, op(txn, round + 1));
                        index.publish(txn, op(txn, round + 2));
                        if round % 2 == 0 {
                            assert_eq!(index.remove(txn), 2);
                        }
                    }
                });
            }
        });
        assert_eq!(index.len(), index.len_by_scan());
        assert_eq!(index.len(), 4 * 100 * 2);
    }

    /// The set of entries a scan returned, by identity, for comparing two
    /// scans regardless of shard order.
    fn identities(entries: &[Arc<PublishedOp>]) -> Vec<usize> {
        let mut ids: Vec<usize> = entries.iter().map(|e| Arc::as_ptr(e) as usize).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn a_shard_emptied_and_refilled_is_scanned_again() {
        let index = InFlightIndex::new();
        let mut out = Vec::new();
        // Transactions 3 and 19 share shard 3.
        index.publish(3, op(3, 1));
        index.remove(3);
        index.others_into(0, &mut out);
        assert!(out.is_empty(), "the emptied shard holds nothing");
        index.publish(19, op(19, 2));
        index.others_into(0, &mut out);
        assert_eq!(
            out.iter().map(|o| o.entry.txn).collect::<Vec<_>>(),
            vec![19],
            "a refilled shard must be visible again"
        );
        // Removing one of two slots keeps the shard occupied.
        index.publish(3, op(3, 3));
        index.remove(19);
        index.others_into(0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].entry.txn, 3);
        assert_eq!(identities(&out), identities(&index.others_by_full_scan(0)));
    }

    #[test]
    fn occupied_scan_matches_a_full_scan_under_concurrent_churn() {
        // Publishers hold a stand-in for the structure lock, as the executor
        // does; removals do not, as commits do not. While holding it, a
        // thread's freshly published entry must be visible to another
        // transaction's scan, whatever its shard went through before —
        // the property the locked admission pass relies on.
        let index = Arc::new(InFlightIndex::new());
        let structure = Arc::new(parking_lot::Mutex::new(()));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let index = Arc::clone(&index);
                let structure = Arc::clone(&structure);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..200u64 {
                        let txn = t * 1_000 + round;
                        let entry = op(txn, round + 1);
                        {
                            let _locked = structure.lock();
                            index.publish(txn, Arc::clone(&entry));
                            index.others_into(u64::MAX, &mut out);
                            assert!(
                                out.iter().any(|o| Arc::ptr_eq(o, &entry)),
                                "txn {txn}: a fresh publish was skipped"
                            );
                        }
                        if round % 3 != 0 {
                            assert_eq!(index.remove(txn), 1);
                        }
                    }
                });
            }
        });
        for txn in [u64::MAX, 0, 1_001, 3_198] {
            let mut out = Vec::new();
            index.others_into(txn, &mut out);
            assert_eq!(
                identities(&out),
                identities(&index.others_by_full_scan(txn)),
                "viewer {txn}"
            );
        }
        assert_eq!(index.len(), 4 * 67);
    }

    #[test]
    fn others_excludes_own_entries() {
        let index = InFlightIndex::new();
        // Transactions 1 and 17 land in the same shard (17 % 16 == 1).
        index.publish(1, op(1, 1));
        index.publish(17, op(17, 2));
        index.publish(5, op(5, 3));
        let mut out = vec![op(9, 9)];
        index.others_into(17, &mut out);
        let seen: Vec<u64> = out.iter().map(|o| o.entry.txn).collect();
        assert_eq!(seen.len(), 2, "the buffer is cleared first");
        assert!(seen.contains(&1) && seen.contains(&5));
    }
}
