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
//! Lock order: the structure mutex, if held, is always acquired *before* any
//! shard lock, and no path acquires the structure mutex while holding a
//! shard lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::log::LogEntry;

/// Shard count of the index. Sixteen matches the prover's verdict-cache and
/// claim-table split and keeps publisher/reader collisions rare at the
/// thread counts the runtime targets.
pub const N_SHARDS: usize = 16;

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

    fn shard(&self, txn: u64) -> &Shard {
        &self.shards[(txn % N_SHARDS as u64) as usize]
    }

    /// Appends a published operation to `txn`'s slot (creating the slot on
    /// the transaction's first operation).
    pub fn publish(&self, txn: u64, op: Arc<PublishedOp>) {
        let mut guard = self.shard(txn).write();
        guard.entry(txn).or_default().push(op);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes `txn`'s slot, returning how many operations it held. A
    /// transaction that never published has no slot; removing it touches no
    /// lock state beyond its own shard.
    pub fn remove(&self, txn: u64) -> usize {
        let removed = self
            .shard(txn)
            .write()
            .remove(&txn)
            .map_or(0, |entries| entries.len());
        if removed > 0 {
            self.count.fetch_sub(removed, Ordering::Relaxed);
        }
        removed
    }

    /// All operations of transactions other than `txn`, as `Arc` clones,
    /// into a caller-supplied buffer (cleared first) — the executor reuses
    /// one buffer per transaction so admission allocates nothing, and
    /// evaluates conditions against the clones without holding any shard
    /// lock.
    pub fn others_into(&self, txn: u64, out: &mut Vec<Arc<PublishedOp>>) {
        out.clear();
        for shard in &self.shards {
            let guard = shard.read();
            for (&owner, entries) in guard.iter() {
                if owner != txn {
                    out.extend(entries.iter().cloned());
                }
            }
        }
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
