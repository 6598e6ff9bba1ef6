//! Property-based tests for the eviction invariants the engine
//! relies on: the storage region never exceeds its budget, LRC never
//! sacrifices a live-reference partition while a dead one is available,
//! and spill→reread round-trips byte counts exactly.

use memman::{Disposition, InsertOutcome, MemoryManager};
use proptest::prelude::*;

/// Drive a manager through a random op sequence and assert the per-node
/// storage limit is never exceeded by resident bytes.
fn check_budget_respected(budget: u64, ops: &[(u64, u64, usize)]) {
    let nodes = 3;
    let mut m = MemoryManager::new(nodes, Some(budget));
    for (i, &(id, size, refs)) in ops.iter().enumerate() {
        match i % 4 {
            0 | 1 => {
                // Spread bytes over nodes deterministically.
                let mut per_node = vec![0u64; nodes];
                per_node[(id as usize) % nodes] = size;
                per_node[(id as usize + 1) % nodes] = size / 2;
                m.insert(id, per_node, refs);
            }
            2 => m.touch(id),
            _ => {
                let reserve = vec![size % budget.max(1); nodes];
                m.set_execution_reservation(&reserve);
            }
        }
        for n in 0..nodes {
            let limit = m.storage_limit(n).unwrap();
            assert!(
                m.storage_used()[n] <= limit,
                "node {n}: resident {} exceeds storage limit {limit}",
                m.storage_used()[n]
            );
        }
    }
}

proptest! {
    /// Invariant 1: resident storage bytes never exceed the storage
    /// region limit (budget minus execution reservation), under any mix
    /// of inserts, touches, and reservation changes.
    #[test]
    fn storage_never_exceeds_budget(
        budget in 1u64..10_000,
        ops in proptest::collection::vec(
            (0u64..16, 0u64..4_000, 0usize..4), 1..40),
    ) {
        check_budget_respected(budget, &ops);
    }

    /// Invariant 2: LRC never evicts an entry with live references while
    /// a zero-reference entry is still resident. With a single node every
    /// resident entry is an eligible victim, so within one call the
    /// eviction sequence must be nondecreasing in ref-count, and each
    /// victim's disposition must match its refs (0 → dropped, else
    /// spilled).
    #[test]
    fn lrc_prefers_dead_victims(
        inserts in proptest::collection::vec((1u64..500, 0usize..3), 2..30),
        budget in 200u64..2_000,
    ) {
        let mut m = MemoryManager::new(1, Some(budget));
        for (i, &(size, refs)) in inserts.iter().enumerate() {
            let out = m.insert(i as u64, vec![size], refs);
            let evicted = out.evicted();
            for pair in evicted.windows(2) {
                prop_assert!(
                    pair[0].refs <= pair[1].refs,
                    "evicted a live-ref entry (refs {}) before a deader one (refs {})",
                    pair[0].refs, pair[1].refs
                );
            }
            for ev in evicted {
                match ev.disposition {
                    Disposition::Dropped => prop_assert_eq!(ev.refs, 0),
                    Disposition::Spilled => prop_assert!(ev.refs > 0),
                }
            }
        }
    }

    /// Invariant 3: every spilled entry rereads exactly the bytes that
    /// were spilled for it, and the aggregate counters balance.
    #[test]
    fn spill_reread_round_trips_exactly(
        inserts in proptest::collection::vec((1u64..1_000, 1usize..3), 1..25),
        budget in 1u64..800,
    ) {
        let mut m = MemoryManager::new(2, Some(budget));
        let mut spilled: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        let mut totals: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        for (i, &(size, refs)) in inserts.iter().enumerate() {
            let id = i as u64;
            let per_node = vec![size, size / 3];
            totals.insert(id, size + size / 3);
            let out = m.insert(id, per_node, refs);
            if matches!(out, InsertOutcome::Spilled { .. }) {
                spilled.insert(id, totals[&id]);
            }
            for ev in out.evicted() {
                if ev.disposition == Disposition::Spilled {
                    spilled.insert(ev.id, totals[&ev.id]);
                }
            }
        }
        let expected_spill_bytes: u64 = spilled.values().sum();
        prop_assert_eq!(m.counters().spill_bytes, expected_spill_bytes);
        let mut reread_total = 0u64;
        for (&id, &bytes) in &spilled {
            prop_assert!(m.is_spilled(id));
            let got = m.reread(id);
            prop_assert_eq!(got, bytes, "reread bytes differ from spilled bytes");
            reread_total += got;
        }
        prop_assert_eq!(m.counters().reread_bytes, reread_total);
        prop_assert_eq!(m.counters().rereads, spilled.len() as u64);
    }
}
