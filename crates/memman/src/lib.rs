//! Unified executor memory manager.
//!
//! Models Spark's unified memory model per simulated executor node: a
//! single per-node budget is shared between an *execution region* (task
//! working sets, reserved stage-by-stage) and a *storage region* (cached
//! RDD partitions). Execution borrows from storage: raising the execution
//! reservation shrinks the storage limit and may force evictions.
//!
//! Eviction is least-reference-count (LRC, DAG-aware, after Yang et al.):
//! victims are ordered by remaining lineage references first, recency
//! second, so a partition still needed by a future stage outlives one
//! that is not.
//!
//! A victim with zero remaining references is *dropped* (recompute from
//! lineage if ever needed again); a victim with live references is
//! *spilled* (its bytes move to disk, a later read pays a reread). All
//! decisions are deterministic: entries live in a `BTreeMap` keyed by id
//! and ties break on (refs, last-access, id), never on hash order.

use std::collections::BTreeMap;

/// Monotonic counters describing everything the manager did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Victims removed from the storage region (dropped or spilled).
    pub evictions: u64,
    /// Entries whose bytes moved to disk (victims with live refs, plus
    /// inserts that never fit).
    pub spills: u64,
    /// Total bytes written to spill storage.
    pub spill_bytes: u64,
    /// Reads served from spill storage.
    pub rereads: u64,
    /// Total bytes read back from spill storage.
    pub reread_bytes: u64,
    /// Cache entries that were re-materialized after a drop.
    pub recomputes: u64,
    /// Entries released because their lineage ref-count hit zero.
    pub released: u64,
}

/// What happened to an evicted entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// No remaining references: the entry is gone, recompute on reuse.
    Dropped,
    /// Live references remain: bytes moved to disk, reads pay a reread.
    Spilled,
}

/// One eviction decision, reported back to the caller so it can mirror
/// the change (release simulated residency, write the spill file, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction {
    /// Entry id (the engine keys these by RDD id).
    pub id: u64,
    /// Dropped or spilled.
    pub disposition: Disposition,
    /// Remaining lineage references at eviction time.
    pub refs: usize,
    /// Resident bytes freed, per node.
    pub bytes: Vec<u64>,
}

/// Result of [`MemoryManager::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The entry is resident in the storage region.
    Stored { evicted: Vec<Eviction> },
    /// Even after evicting everything eligible the entry did not fit;
    /// its bytes go straight to disk.
    Spilled { evicted: Vec<Eviction> },
}

impl InsertOutcome {
    /// The evictions performed while making room, regardless of outcome.
    pub fn evicted(&self) -> &[Eviction] {
        match self {
            InsertOutcome::Stored { evicted } | InsertOutcome::Spilled { evicted } => evicted,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Resident,
    Spilled,
}

#[derive(Debug, Clone)]
struct Entry {
    /// Resident bytes per node (zeroed on spill).
    bytes: Vec<u64>,
    /// Logical size of the cached data (survives a spill; rereads are
    /// charged against it so spill→reread round-trips exactly).
    total: u64,
    last_access: u64,
    refs: usize,
    state: EntryState,
}

/// Deterministic unified memory manager for one simulated cluster.
#[derive(Debug)]
pub struct MemoryManager {
    /// Per-node unified budget; `None` means unlimited (manager inert).
    budget: Option<u64>,
    num_nodes: usize,
    /// Logical clock for recency ordering.
    seq: u64,
    entries: BTreeMap<u64, Entry>,
    storage_used: Vec<u64>,
    exec_reserved: Vec<u64>,
    counters: MemCounters,
}

impl MemoryManager {
    /// Manager with a per-node unified budget.
    pub fn new(num_nodes: usize, budget: Option<u64>) -> Self {
        assert!(num_nodes > 0, "memory manager needs at least one node");
        MemoryManager {
            budget,
            num_nodes,
            seq: 0,
            entries: BTreeMap::new(),
            storage_used: vec![0; num_nodes],
            exec_reserved: vec![0; num_nodes],
            counters: MemCounters::default(),
        }
    }

    /// Unlimited manager: tracks accounting but never evicts or spills.
    pub fn unlimited(num_nodes: usize) -> Self {
        Self::new(num_nodes, None)
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub fn counters(&self) -> MemCounters {
        self.counters
    }

    /// Resident storage bytes per node.
    pub fn storage_used(&self) -> &[u64] {
        &self.storage_used
    }

    /// Storage-region limit on `node`: the unified budget minus whatever
    /// execution has reserved (execution borrows from storage first).
    pub fn storage_limit(&self, node: usize) -> Option<u64> {
        self.budget
            .map(|b| b.saturating_sub(self.exec_reserved[node]))
    }

    /// True when the entry exists and its bytes live on disk.
    pub fn is_spilled(&self, id: u64) -> bool {
        matches!(
            self.entries.get(&id),
            Some(e) if e.state == EntryState::Spilled
        )
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Nodes whose storage region currently exceeds its limit, given an
    /// optional incoming allocation.
    fn over_budget_nodes(&self, incoming: Option<&[u64]>) -> Vec<usize> {
        let Some(_) = self.budget else {
            return Vec::new();
        };
        (0..self.num_nodes)
            .filter(|&n| {
                let want = self.storage_used[n] + incoming.map_or(0, |b| b[n]);
                want > self.storage_limit(n).unwrap()
            })
            .collect()
    }

    /// Deterministically pick the next victim among resident entries
    /// holding bytes on any of `nodes`. Returns the entry id.
    fn pick_victim(&self, nodes: &[usize], exclude: Option<u64>) -> Option<u64> {
        let mut best: Option<(usize, u64, u64)> = None; // (refs, last_access, id)
        let mut best_id = None;
        for (&id, e) in &self.entries {
            if Some(id) == exclude || e.state != EntryState::Resident {
                continue;
            }
            if !nodes.iter().any(|&n| e.bytes[n] > 0) {
                continue;
            }
            let key = (e.refs, e.last_access, id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
                best_id = Some(id);
            }
        }
        best_id
    }

    /// Evict the entry `id`; returns the decision record.
    fn evict(&mut self, id: u64) -> Eviction {
        let e = self.entries.get_mut(&id).expect("victim exists");
        let freed = std::mem::replace(&mut e.bytes, vec![0; self.num_nodes]);
        for (n, b) in freed.iter().enumerate() {
            self.storage_used[n] -= b;
        }
        let refs = e.refs;
        self.counters.evictions += 1;
        let disposition = if refs == 0 {
            self.entries.remove(&id);
            Disposition::Dropped
        } else {
            let e = self.entries.get_mut(&id).unwrap();
            e.state = EntryState::Spilled;
            self.counters.spills += 1;
            self.counters.spill_bytes += e.total;
            Disposition::Spilled
        };
        Eviction {
            id,
            disposition,
            refs,
            bytes: freed,
        }
    }

    /// Evict until every node fits (optionally with `incoming` added).
    /// Stops when no eligible victim remains even if still over — the
    /// caller decides what to do with the overflow.
    fn make_room(&mut self, incoming: Option<&[u64]>, exclude: Option<u64>) -> Vec<Eviction> {
        let mut out = Vec::new();
        loop {
            let over = self.over_budget_nodes(incoming);
            if over.is_empty() {
                break;
            }
            match self.pick_victim(&over, exclude) {
                Some(id) => out.push(self.evict(id)),
                None => break,
            }
        }
        out
    }

    /// Reserve execution memory per node for the upcoming stage; evicts
    /// cached data if storage must shrink to make room. Returns the
    /// evictions performed.
    pub fn set_execution_reservation(&mut self, per_node: &[u64]) -> Vec<Eviction> {
        assert_eq!(per_node.len(), self.num_nodes);
        self.exec_reserved.copy_from_slice(per_node);
        self.make_room(None, None)
    }

    /// Insert a cached entry with `per_node` resident bytes and `refs`
    /// remaining lineage references.
    pub fn insert(&mut self, id: u64, per_node: Vec<u64>, refs: usize) -> InsertOutcome {
        assert_eq!(per_node.len(), self.num_nodes);
        let total: u64 = per_node.iter().sum();
        let seq = self.next_seq();
        // Re-inserting an id replaces the old entry (recompute path).
        if let Some(old) = self.entries.remove(&id) {
            for (n, b) in old.bytes.iter().enumerate() {
                self.storage_used[n] -= b;
            }
        }
        let evicted = self.make_room(Some(&per_node), Some(id));
        let fits = self.over_budget_nodes(Some(&per_node)).is_empty();
        if fits {
            for (n, b) in per_node.iter().enumerate() {
                self.storage_used[n] += b;
            }
            self.entries.insert(
                id,
                Entry {
                    bytes: per_node,
                    total,
                    last_access: seq,
                    refs,
                    state: EntryState::Resident,
                },
            );
            InsertOutcome::Stored { evicted }
        } else {
            self.counters.spills += 1;
            self.counters.spill_bytes += total;
            self.entries.insert(
                id,
                Entry {
                    bytes: vec![0; self.num_nodes],
                    total,
                    last_access: seq,
                    refs,
                    state: EntryState::Spilled,
                },
            );
            InsertOutcome::Spilled { evicted }
        }
    }

    /// Record a read of the entry (bumps recency).
    pub fn touch(&mut self, id: u64) {
        let seq = self.next_seq();
        if let Some(e) = self.entries.get_mut(&id) {
            e.last_access = seq;
        }
    }

    /// Update remaining lineage references for an entry.
    pub fn set_refs(&mut self, id: u64, refs: usize) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.refs = refs;
        }
    }

    /// Charge a read of a spilled entry. Returns the bytes read back —
    /// exactly the bytes that were spilled for this entry.
    pub fn reread(&mut self, id: u64) -> u64 {
        let seq = self.next_seq();
        let Some(e) = self.entries.get_mut(&id) else {
            return 0;
        };
        debug_assert_eq!(e.state, EntryState::Spilled, "reread of resident entry");
        e.last_access = seq;
        self.counters.rereads += 1;
        self.counters.reread_bytes += e.total;
        e.total
    }

    /// Record that a previously dropped entry was re-materialized.
    pub fn note_recompute(&mut self) {
        self.counters.recomputes += 1;
    }

    /// Record a map-side shuffle spill of `bytes` (combine buffer larger
    /// than the task's execution-memory share).
    pub fn note_shuffle_spill(&mut self, bytes: u64) {
        self.counters.spills += 1;
        self.counters.spill_bytes += bytes;
    }

    /// Remove an entry outright (lineage ref-count hit zero). Returns the
    /// per-node resident bytes freed, if the entry existed.
    pub fn release(&mut self, id: u64) -> Option<Vec<u64>> {
        let e = self.entries.remove(&id)?;
        for (n, b) in e.bytes.iter().enumerate() {
            self.storage_used[n] -= b;
        }
        self.counters.released += 1;
        Some(e.bytes)
    }

    /// Drop every entry whose ref-count is zero; returns (id, freed
    /// per-node bytes) for each, in id order.
    pub fn release_unreferenced(&mut self) -> Vec<(u64, Vec<u64>)> {
        let ids: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.refs == 0)
            .map(|(&id, _)| id)
            .collect();
        ids.into_iter()
            .filter_map(|id| self.release(id).map(|b| (id, b)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Tenant-scoped admission ledger (job server)
// ---------------------------------------------------------------------------

/// Monotonic counters for a [`TenantLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerCounters {
    /// Admissions granted.
    pub admitted: u64,
    /// Admissions denied (would exceed guarantee + shared pool).
    pub denied: u64,
}

/// Per-tenant memory admission ledger with a shared overflow pool.
///
/// Each tenant holds a *guarantee* — bytes it can always occupy — and may
/// borrow past it from one *shared pool* that all tenants' overflows
/// compete for. The job server charges a job's estimated footprint here
/// before dispatching it and releases the charge at completion, so one
/// tenant's burst can delay (never starve: the guarantee is reserved) the
/// others. Purely arithmetic over explicit state — deterministic by
/// construction.
#[derive(Debug, Clone)]
pub struct TenantLedger {
    /// Shared overflow pool, competed for by every tenant's excess.
    shared: u64,
    /// Per-tenant guaranteed bytes.
    guarantees: Vec<u64>,
    /// Per-tenant bytes currently charged.
    used: Vec<u64>,
    counters: LedgerCounters,
}

impl TenantLedger {
    /// Ledger with `shared` overflow bytes and one guarantee per tenant.
    pub fn new(shared: u64, guarantees: Vec<u64>) -> TenantLedger {
        let used = vec![0; guarantees.len()];
        TenantLedger {
            shared,
            guarantees,
            used,
            counters: LedgerCounters::default(),
        }
    }

    pub fn num_tenants(&self) -> usize {
        self.guarantees.len()
    }

    pub fn counters(&self) -> LedgerCounters {
        self.counters
    }

    /// Bytes tenant `t` currently has charged.
    pub fn used(&self, t: usize) -> u64 {
        self.used[t]
    }

    /// Shared-pool bytes currently consumed by overflows past guarantees.
    pub fn shared_used(&self) -> u64 {
        self.used
            .iter()
            .zip(&self.guarantees)
            .map(|(&u, &g)| u.saturating_sub(g))
            .sum()
    }

    /// Tries to charge `bytes` to tenant `t`. The portion within the
    /// tenant's remaining guarantee is always granted; any excess must fit
    /// in what is left of the shared pool. All-or-nothing.
    pub fn try_admit(&mut self, t: usize, bytes: u64) -> bool {
        let after = self.used[t] + bytes;
        let overflow_after = after.saturating_sub(self.guarantees[t]);
        let overflow_now = self.used[t].saturating_sub(self.guarantees[t]);
        let shared_after = self.shared_used() - overflow_now + overflow_after;
        if shared_after > self.shared {
            self.counters.denied += 1;
            return false;
        }
        self.used[t] = after;
        self.counters.admitted += 1;
        true
    }

    /// Returns a prior charge. Saturates at zero so a conservative caller
    /// can never underflow the ledger.
    pub fn release(&mut self, t: usize, bytes: u64) {
        self.used[t] = self.used[t].saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(o: &InsertOutcome) -> bool {
        matches!(o, InsertOutcome::Stored { .. })
    }

    #[test]
    fn unlimited_never_evicts() {
        let mut m = MemoryManager::unlimited(2);
        for id in 0..10 {
            let out = m.insert(id, vec![1 << 30, 1 << 30], 0);
            assert!(stored(&out));
            assert!(out.evicted().is_empty());
        }
        assert_eq!(m.counters(), MemCounters::default());
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Equal refs: LRC falls back to recency.
        let mut m = MemoryManager::new(1, Some(100));
        assert!(stored(&m.insert(1, vec![40], 1)));
        assert!(stored(&m.insert(2, vec![40], 1)));
        m.touch(1); // entry 2 is now least recent
        let out = m.insert(3, vec![40], 1);
        assert!(stored(&out));
        assert_eq!(out.evicted().len(), 1);
        assert_eq!(out.evicted()[0].id, 2);
        assert_eq!(out.evicted()[0].disposition, Disposition::Spilled);
        assert!(m.is_spilled(2));
        assert!(!m.is_spilled(1));
    }

    #[test]
    fn lrc_prefers_zero_ref_victim_and_drops_it() {
        let mut m = MemoryManager::new(1, Some(100));
        m.insert(1, vec![40], 3);
        m.insert(2, vec![40], 0);
        m.touch(2); // recency says evict 1; refs say evict 2
        let out = m.insert(3, vec![40], 1);
        assert_eq!(out.evicted()[0].id, 2);
        assert_eq!(out.evicted()[0].disposition, Disposition::Dropped);
        assert!(!m.is_spilled(1), "live-ref entry stays resident");
        assert_eq!(m.counters().evictions, 1);
        assert_eq!(m.counters().spills, 0);
    }

    #[test]
    fn execution_reservation_squeezes_storage() {
        let mut m = MemoryManager::new(1, Some(100));
        m.insert(1, vec![60], 1);
        assert!(m.set_execution_reservation(&[30]).is_empty());
        let ev = m.set_execution_reservation(&[70]);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].id, 1);
        assert!(m.is_spilled(1));
        assert_eq!(m.storage_used(), &[0]);
    }

    #[test]
    fn oversized_insert_spills_itself() {
        let mut m = MemoryManager::new(2, Some(50));
        let out = m.insert(7, vec![60, 10], 2);
        assert!(matches!(out, InsertOutcome::Spilled { .. }));
        assert!(m.is_spilled(7));
        assert_eq!(m.counters().spill_bytes, 70);
        assert_eq!(m.reread(7), 70);
        assert_eq!(m.counters().reread_bytes, 70);
    }

    #[test]
    fn release_unreferenced_sweeps_only_zero_ref() {
        let mut m = MemoryManager::unlimited(1);
        m.insert(1, vec![10], 2);
        m.insert(2, vec![20], 0);
        m.insert(3, vec![30], 1);
        m.set_refs(3, 0);
        let freed = m.release_unreferenced();
        assert_eq!(
            freed,
            vec![(2, vec![20]), (3, vec![30])],
            "id order, zero-ref only"
        );
        assert_eq!(m.storage_used(), &[10]);
        assert_eq!(m.counters().released, 2);
    }

    #[test]
    fn reinsert_replaces_prior_accounting() {
        let mut m = MemoryManager::new(1, Some(100));
        m.insert(1, vec![80], 1);
        m.insert(1, vec![40], 1); // recompute shrank it
        assert_eq!(m.storage_used(), &[40]);
    }

    #[test]
    fn ledger_guarantee_is_always_available() {
        let mut l = TenantLedger::new(0, vec![100, 100]);
        assert!(l.try_admit(0, 100));
        assert!(l.try_admit(1, 100), "tenant 1's guarantee is untouchable");
        assert!(!l.try_admit(0, 1), "no shared pool to borrow from");
        assert_eq!(
            l.counters(),
            LedgerCounters {
                admitted: 2,
                denied: 1
            }
        );
    }

    #[test]
    fn ledger_overflow_competes_for_shared_pool() {
        let mut l = TenantLedger::new(50, vec![100, 100]);
        assert!(l.try_admit(0, 140)); // 40 over guarantee, from shared
        assert_eq!(l.shared_used(), 40);
        assert!(!l.try_admit(1, 120), "20 over, only 10 shared left");
        assert!(l.try_admit(1, 110)); // exactly fills the shared pool
        assert_eq!(l.shared_used(), 50);
        l.release(0, 140);
        assert_eq!(l.used(0), 0);
        assert!(l.try_admit(0, 130), "released shared bytes come back");
    }

    #[test]
    fn ledger_release_saturates() {
        let mut l = TenantLedger::new(10, vec![20]);
        assert!(l.try_admit(0, 15));
        l.release(0, 100);
        assert_eq!(l.used(0), 0);
        assert_eq!(l.shared_used(), 0);
    }
}
