//! An HDFS-like replicated block store.
//!
//! The paper's Spark deployment reads its input from HDFS; CHOPPER's
//! evaluation additionally reports disk transactions per second (Fig. 14).
//! This substrate provides the pieces the engine needs from a distributed
//! filesystem:
//!
//! * files split into fixed-size blocks,
//! * capacity-aware replica placement across data nodes,
//! * block → node locality lookup (drives the input-stage task placement),
//! * read/write transaction counters.
//!
//! Data content is not stored here — the engine materializes records itself;
//! the block store tracks *where bytes live* and *how much I/O happened*.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Index of a data node (aligned with `simcluster::NodeId`).
pub type NodeId = usize;

/// Metadata of one stored block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Byte length of this block (≤ the store's block size).
    pub size: u64,
    /// Nodes holding a replica; the first entry is the primary.
    pub replicas: Vec<NodeId>,
}

/// Placement failure: not enough nodes with free capacity to hold a
/// block at the required replication factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFull {
    /// Size of the block that could not be placed.
    pub block_bytes: u64,
    /// Replicas required per block.
    pub replication: usize,
}

impl std::fmt::Display for StoreFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block store full: cannot place a {}-byte block with {} replica(s)",
            self.block_bytes, self.replication
        )
    }
}

impl std::error::Error for StoreFull {}

/// Aggregate I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Completed block-read operations.
    pub reads: u64,
    /// Completed block-write operations (one per stored replica).
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written (counting every replica).
    pub bytes_written: u64,
}

#[derive(Debug, Default)]
struct Inner {
    files: HashMap<String, Vec<BlockMeta>>,
    used_bytes: Vec<u64>,
    counters: IoCounters,
}

/// A replicated block store over `num_nodes` data nodes.
#[derive(Debug)]
pub struct BlockStore {
    num_nodes: usize,
    block_size: u64,
    replication: usize,
    /// Per-node byte capacity; `None` means unbounded.
    capacity: Option<u64>,
    inner: Mutex<Inner>,
}

impl BlockStore {
    /// Locks the store state, ignoring poisoning: every update leaves
    /// `Inner` consistent, so a panicked holder cannot corrupt it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Creates a store with HDFS-ish defaults: 128 MB blocks, 3-way
    /// replication (capped at the node count).
    pub fn new(num_nodes: usize) -> Self {
        Self::with_config(num_nodes, 128 * 1024 * 1024, 3)
    }

    /// Creates a store with explicit block size and replication factor.
    ///
    /// # Panics
    /// Panics if `num_nodes` or `block_size` or `replication` is zero.
    pub fn with_config(num_nodes: usize, block_size: u64, replication: usize) -> Self {
        Self::with_capacity(num_nodes, block_size, replication, None)
    }

    /// Creates a store with an optional per-node byte capacity. When a
    /// capacity is set, placement skips full nodes and
    /// [`BlockStore::try_create_file`] errors once no placement exists.
    ///
    /// # Panics
    /// Panics if `num_nodes` or `block_size` or `replication` is zero.
    pub fn with_capacity(
        num_nodes: usize,
        block_size: u64,
        replication: usize,
        capacity: Option<u64>,
    ) -> Self {
        assert!(num_nodes > 0, "need at least one data node");
        assert!(block_size > 0, "block size must be positive");
        assert!(replication > 0, "replication factor must be positive");
        BlockStore {
            num_nodes,
            block_size,
            replication: replication.min(num_nodes),
            capacity,
            inner: Mutex::new(Inner {
                files: HashMap::new(),
                used_bytes: vec![0; num_nodes],
                counters: IoCounters::default(),
            }),
        }
    }

    /// The store's block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// The effective replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Creates (or replaces) a file of `total_bytes`, splitting it into
    /// blocks and placing replicas on the least-loaded nodes.
    ///
    /// Returns the number of blocks created. Writing counts toward the
    /// transaction counters (one write per stored replica).
    ///
    /// # Panics
    /// Panics if a per-node capacity is set and placement is impossible;
    /// use [`BlockStore::try_create_file`] when capacity can run out.
    pub fn create_file(&self, name: &str, total_bytes: u64) -> usize {
        self.try_create_file(name, total_bytes)
            .expect("block store capacity exhausted")
    }

    /// Fallible variant of [`BlockStore::create_file`]: returns
    /// `Err(StoreFull)` when no node has room for a block, leaving the
    /// store (including any previous file under `name`) untouched.
    pub fn try_create_file(&self, name: &str, total_bytes: u64) -> Result<usize, StoreFull> {
        let mut inner = self.lock();
        // Plan placement on a scratch copy of the usage vector so a
        // failure mid-file leaves the store unchanged. The scratch view
        // pretends the old file is already gone (re-creation replaces).
        let mut used = inner.used_bytes.clone();
        if let Some(old) = inner.files.get(name) {
            for b in old {
                for &n in &b.replicas {
                    used[n] = used[n].saturating_sub(b.size);
                }
            }
        }

        let mut blocks = Vec::new();
        let mut remaining = total_bytes;
        while remaining > 0 || blocks.is_empty() {
            let size = remaining
                .min(self.block_size)
                .max(if total_bytes == 0 { 0 } else { 1 });
            let replicas = Self::place(&used, self.replication, self.capacity, size)?;
            for &n in &replicas {
                used[n] += size;
            }
            blocks.push(BlockMeta { size, replicas });
            if remaining == 0 {
                break; // empty file still gets one zero-length block
            }
            remaining -= size;
        }

        // Commit: release the old file, charge the new blocks.
        if let Some(old) = inner.files.remove(name) {
            for b in &old {
                for &n in &b.replicas {
                    inner.used_bytes[n] = inner.used_bytes[n].saturating_sub(b.size);
                }
            }
        }
        for b in &blocks {
            for &n in &b.replicas {
                inner.used_bytes[n] += b.size;
                inner.counters.writes += 1;
                inner.counters.bytes_written += b.size;
            }
        }
        let n = blocks.len();
        inner.files.insert(name.to_string(), blocks);
        Ok(n)
    }

    /// Creates (or replaces) an unreplicated file pinned entirely to
    /// `node` — the engine's spill path writes evicted cache partitions
    /// to the local disk of the node that held them. Capacity is not
    /// enforced for spill files. Returns the number of blocks created.
    pub fn create_file_on(&self, name: &str, total_bytes: u64, node: NodeId) -> usize {
        assert!(node < self.num_nodes, "spill target node out of range");
        let mut inner = self.lock();
        if let Some(old) = inner.files.remove(name) {
            for b in &old {
                for &n in &b.replicas {
                    inner.used_bytes[n] = inner.used_bytes[n].saturating_sub(b.size);
                }
            }
        }
        let mut blocks = Vec::new();
        let mut remaining = total_bytes;
        while remaining > 0 || blocks.is_empty() {
            let size = remaining
                .min(self.block_size)
                .max(if total_bytes == 0 { 0 } else { 1 });
            inner.used_bytes[node] += size;
            inner.counters.writes += 1;
            inner.counters.bytes_written += size;
            blocks.push(BlockMeta {
                size,
                replicas: vec![node],
            });
            if remaining == 0 {
                break;
            }
            remaining -= size;
        }
        let n = blocks.len();
        inner.files.insert(name.to_string(), blocks);
        n
    }

    /// Picks the `replication` least-loaded distinct nodes with room for
    /// a `size`-byte block.
    fn place(
        used: &[u64],
        replication: usize,
        capacity: Option<u64>,
        size: u64,
    ) -> Result<Vec<NodeId>, StoreFull> {
        let mut order: Vec<NodeId> = (0..used.len())
            .filter(|&n| capacity.is_none_or(|cap| used[n] + size <= cap))
            .collect();
        // Stable tiebreak on node id keeps placement deterministic.
        order.sort_by_key(|&n| (used[n], n));
        if order.len() < replication {
            return Err(StoreFull {
                block_bytes: size,
                replication,
            });
        }
        order.truncate(replication);
        Ok(order)
    }

    /// The block list of a file, if it exists.
    pub fn file_blocks(&self, name: &str) -> Option<Vec<BlockMeta>> {
        self.lock().files.get(name).cloned()
    }

    /// Total length of a file in bytes.
    pub fn file_len(&self, name: &str) -> Option<u64> {
        self.lock()
            .files
            .get(name)
            .map(|bs| bs.iter().map(|b| b.size).sum())
    }

    /// Records a full read of the file, charging one read transaction per
    /// block, and returns the block list for locality-aware scheduling.
    pub fn read_file(&self, name: &str) -> Option<Vec<BlockMeta>> {
        let mut inner = self.lock();
        let blocks = inner.files.get(name).cloned()?;
        for b in &blocks {
            inner.counters.reads += 1;
            inner.counters.bytes_read += b.size;
        }
        Some(blocks)
    }

    /// Deterministic serving-replica choice for one block under a set of
    /// down nodes: the primary when it survives, otherwise the
    /// *lowest-id* surviving replica. Scanning the replica list in
    /// node-id order (never map iteration order) keeps the choice
    /// identical across runs, which the engine's fault-recovery
    /// equivalence tests depend on. Returns `None` when the file/block
    /// is missing or every replica is down.
    pub fn select_replica(&self, name: &str, block: usize, down: &[bool]) -> Option<NodeId> {
        let inner = self.lock();
        let meta = inner.files.get(name)?.get(block)?;
        Self::pick_from(&meta.replicas, down)
    }

    /// Like [`BlockStore::select_replica`], but also charges one read
    /// transaction for the block — the accounting a recovery-time replica
    /// read produces.
    pub fn read_replica(&self, name: &str, block: usize, down: &[bool]) -> Option<NodeId> {
        let mut inner = self.lock();
        let meta = inner.files.get(name)?.get(block)?.clone();
        let node = Self::pick_from(&meta.replicas, down)?;
        inner.counters.reads += 1;
        inner.counters.bytes_read += meta.size;
        Some(node)
    }

    /// The least-loaded surviving node, ties broken by node id — the same
    /// deterministic ordering [`place`](BlockStore::try_create_file) uses.
    /// The engine re-homes data whose holder was lost onto this node.
    /// Returns `None` when every node is down.
    pub fn pick_survivor(&self, down: &[bool]) -> Option<NodeId> {
        let inner = self.lock();
        (0..self.num_nodes)
            .filter(|&n| !down.get(n).copied().unwrap_or(false))
            .min_by_key(|&n| (inner.used_bytes[n], n))
    }

    fn pick_from(replicas: &[NodeId], down: &[bool]) -> Option<NodeId> {
        let alive = |&&n: &&NodeId| !down.get(n).copied().unwrap_or(false);
        match replicas.first() {
            Some(&primary) if alive(&&primary) => Some(primary),
            _ => replicas.iter().filter(alive).min().copied(),
        }
    }

    /// Deletes a file, releasing its space. Returns whether it existed.
    pub fn delete_file(&self, name: &str) -> bool {
        let mut inner = self.lock();
        match inner.files.remove(name) {
            Some(blocks) => {
                for b in &blocks {
                    for &n in &b.replicas {
                        inner.used_bytes[n] = inner.used_bytes[n].saturating_sub(b.size);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Bytes stored per node (all replicas counted).
    pub fn used_bytes(&self) -> Vec<u64> {
        self.lock().used_bytes.clone()
    }

    /// Snapshot of the I/O counters.
    pub fn counters(&self) -> IoCounters {
        self.lock().counters
    }

    /// Number of data nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Per-node byte capacity, if bounded.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_splits_into_block_sized_pieces() {
        let s = BlockStore::with_config(3, 100, 2);
        let n = s.create_file("f", 250);
        assert_eq!(n, 3);
        let blocks = s.file_blocks("f").unwrap();
        assert_eq!(
            blocks.iter().map(|b| b.size).collect::<Vec<_>>(),
            vec![100, 100, 50]
        );
        assert_eq!(s.file_len("f"), Some(250));
    }

    #[test]
    fn replication_caps_at_node_count() {
        let s = BlockStore::with_config(2, 100, 3);
        assert_eq!(s.replication(), 2);
        s.create_file("f", 100);
        let b = &s.file_blocks("f").unwrap()[0];
        assert_eq!(b.replicas.len(), 2);
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let s = BlockStore::with_config(5, 10, 3);
        s.create_file("f", 100);
        for b in s.file_blocks("f").unwrap() {
            let mut r = b.replicas.clone();
            r.sort_unstable();
            r.dedup();
            assert_eq!(r.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn placement_balances_load() {
        let s = BlockStore::with_config(4, 100, 1);
        s.create_file("f", 100 * 8); // 8 blocks over 4 nodes
        let used = s.used_bytes();
        assert!(
            used.iter().all(|&u| u == 200),
            "even spread expected, got {used:?}"
        );
    }

    #[test]
    fn read_counts_transactions() {
        let s = BlockStore::with_config(3, 100, 1);
        s.create_file("f", 250);
        s.read_file("f").unwrap();
        let c = s.counters();
        assert_eq!(c.reads, 3);
        assert_eq!(c.bytes_read, 250);
        assert_eq!(c.writes, 3);
        assert_eq!(c.bytes_written, 250);
    }

    #[test]
    fn replicated_writes_count_per_replica() {
        let s = BlockStore::with_config(3, 100, 3);
        s.create_file("f", 100);
        let c = s.counters();
        assert_eq!(c.writes, 3);
        assert_eq!(c.bytes_written, 300);
    }

    #[test]
    fn delete_releases_space() {
        let s = BlockStore::with_config(2, 100, 1);
        s.create_file("f", 300);
        assert!(s.used_bytes().iter().sum::<u64>() > 0);
        assert!(s.delete_file("f"));
        assert_eq!(s.used_bytes().iter().sum::<u64>(), 0);
        assert!(!s.delete_file("f"));
        assert_eq!(s.file_blocks("f"), None);
    }

    #[test]
    fn recreate_replaces_old_file() {
        let s = BlockStore::with_config(2, 100, 1);
        s.create_file("f", 500);
        s.create_file("f", 100);
        assert_eq!(s.file_len("f"), Some(100));
        assert_eq!(s.used_bytes().iter().sum::<u64>(), 100);
    }

    #[test]
    fn empty_file_has_one_empty_block() {
        let s = BlockStore::with_config(2, 100, 1);
        assert_eq!(s.create_file("empty", 0), 1);
        assert_eq!(s.file_len("empty"), Some(0));
    }

    #[test]
    fn missing_file_reads_none() {
        let s = BlockStore::new(3);
        assert_eq!(s.read_file("nope"), None);
        assert_eq!(s.file_len("nope"), None);
    }

    #[test]
    fn capacity_exhaustion_errors_without_mutating() {
        let s = BlockStore::with_capacity(2, 100, 1, Some(150));
        assert_eq!(s.try_create_file("a", 250), Ok(3)); // 100+100+50 over 2 nodes
        let before = s.used_bytes();
        let err = s.try_create_file("b", 200).unwrap_err();
        assert_eq!(err.replication, 1);
        assert_eq!(s.used_bytes(), before, "failed create must not leak space");
        assert_eq!(s.file_blocks("b"), None);
    }

    #[test]
    fn failed_recreate_keeps_old_file() {
        let s = BlockStore::with_capacity(1, 100, 1, Some(100));
        assert_eq!(s.try_create_file("f", 80), Ok(1));
        assert!(s.try_create_file("f", 300).is_err());
        assert_eq!(
            s.file_len("f"),
            Some(80),
            "old file survives a failed replace"
        );
        assert_eq!(s.used_bytes(), vec![80]);
    }

    #[test]
    fn capacity_placement_skips_full_nodes() {
        let s = BlockStore::with_capacity(3, 100, 1, Some(100));
        s.create_file_on("pin", 100, 0); // node 0 full
        let blocks = s.try_create_file("f", 200).unwrap();
        assert_eq!(blocks, 2);
        for b in s.file_blocks("f").unwrap() {
            assert_ne!(b.replicas[0], 0, "full node must not receive blocks");
        }
    }

    #[test]
    fn spill_file_pins_to_node() {
        let s = BlockStore::with_config(4, 100, 3);
        let n = s.create_file_on("__spill/r1.p0", 250, 2);
        assert_eq!(n, 3);
        for b in s.file_blocks("__spill/r1.p0").unwrap() {
            assert_eq!(
                b.replicas,
                vec![2],
                "spill blocks are unreplicated + pinned"
            );
        }
        assert_eq!(s.used_bytes(), vec![0, 0, 250, 0]);
        let c = s.counters();
        assert_eq!(c.writes, 3);
        assert_eq!(c.bytes_written, 250);
    }

    #[test]
    fn replica_selection_prefers_surviving_primary_then_lowest_id() {
        // Load nodes unevenly so the replica list is NOT in node-id order:
        // pre-load nodes 0 and 1, leaving 4, 3, 2 the least-loaded (in
        // (used, id) order) for the next placement.
        let s = BlockStore::with_config(5, 100, 3);
        s.create_file_on("ballast0", 300, 0);
        s.create_file_on("ballast1", 200, 1);
        s.create_file_on("ballast2", 100, 2);
        s.create_file("f", 100);
        let replicas = s.file_blocks("f").unwrap()[0].replicas.clone();
        assert_eq!(replicas, vec![3, 4, 2], "placement order is (used, id)");

        let up = vec![false; 5];
        assert_eq!(s.select_replica("f", 0, &up), Some(3), "primary when alive");

        // Primary down: the *lowest-id* surviving replica serves — node 2,
        // not node 4, even though 4 precedes 2 in the placement list.
        let mut down = vec![false; 5];
        down[3] = true;
        assert_eq!(s.select_replica("f", 0, &down), Some(2));

        down[2] = true;
        assert_eq!(s.select_replica("f", 0, &down), Some(4));

        down[4] = true;
        assert_eq!(s.select_replica("f", 0, &down), None, "all replicas lost");

        assert_eq!(s.select_replica("f", 9, &up), None, "missing block");
        assert_eq!(s.select_replica("nope", 0, &up), None, "missing file");
    }

    #[test]
    fn read_replica_charges_one_read() {
        let s = BlockStore::with_config(4, 100, 2);
        s.create_file("f", 100);
        let before = s.counters();
        let mut down = vec![false; 4];
        let primary = s.file_blocks("f").unwrap()[0].replicas[0];
        down[primary] = true;
        let served = s.read_replica("f", 0, &down).unwrap();
        assert_ne!(served, primary);
        let after = s.counters();
        assert_eq!(after.reads, before.reads + 1);
        assert_eq!(after.bytes_read, before.bytes_read + 100);
    }

    #[test]
    fn pick_survivor_is_deterministic_and_load_aware() {
        let s = BlockStore::with_config(4, 100, 1);
        s.create_file_on("x", 300, 0);
        s.create_file_on("y", 100, 1);
        let none = vec![false; 4];
        assert_eq!(s.pick_survivor(&none), Some(2), "least loaded, lowest id");
        let mut down = vec![false; 4];
        down[2] = true;
        down[3] = true;
        assert_eq!(s.pick_survivor(&down), Some(1));
        assert_eq!(s.pick_survivor(&[true; 4]), None);
    }

    #[test]
    fn deterministic_placement() {
        let mk = || {
            let s = BlockStore::with_config(5, 64, 2);
            s.create_file("a", 1000);
            s.create_file("b", 512);
            (s.file_blocks("a").unwrap(), s.file_blocks("b").unwrap())
        };
        assert_eq!(mk(), mk());
    }
}
