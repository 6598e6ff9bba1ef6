//! Property-based tests for the engine's core invariants.

use engine::shuffle::{bucketize, merge_concat, merge_group, merge_join, merge_reduce};
use engine::{
    build_partitioner, measure_skew, HashPartitioner, Key, Partitioner, PartitionerSpec,
    RangePartitioner, Record, ReduceFn, Value, WorkloadConf,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn arb_key() -> impl Strategy<Value = Key> {
    prop_oneof![
        any::<i64>().prop_map(Key::Int),
        "[a-z]{0,8}".prop_map(|s| Key::str(&s)),
    ]
}

fn arb_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (any::<i64>(), any::<i64>())
            .prop_map(|(k, v)| Record::new(Key::Int(k % 50), Value::Int(v))),
        0..max,
    )
}

fn sum() -> ReduceFn {
    Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int().wrapping_add(b.as_int())))
}

/// Ground truth: per-key sum over a record set.
fn key_sums(records: &[Record]) -> HashMap<Key, i64> {
    let mut m = HashMap::new();
    for r in records {
        *m.entry(r.key.clone()).or_insert(0i64) = m
            .get(&r.key)
            .copied()
            .unwrap_or(0)
            .wrapping_add(r.value.as_int());
    }
    m
}

proptest! {
    /// Every key lands in a valid partition, and the assignment is stable.
    #[test]
    fn partitioners_are_total_and_stable(keys in proptest::collection::vec(arb_key(), 1..200),
                                         parts in 1usize..64) {
        let hash = HashPartitioner::new(parts);
        let range = RangePartitioner::from_sample(keys.iter(), parts, 9);
        for k in &keys {
            let h = hash.partition(k);
            let r = range.partition(k);
            prop_assert!(h < parts);
            prop_assert!(r < parts);
            prop_assert_eq!(h, hash.partition(k));
            prop_assert_eq!(r, range.partition(k));
        }
    }

    /// Range partitioning is monotone in the key order.
    #[test]
    fn range_partitioner_is_monotone(mut keys in proptest::collection::vec(any::<i64>(), 2..300),
                                     parts in 1usize..32) {
        keys.sort_unstable();
        let typed: Vec<Key> = keys.iter().copied().map(Key::Int).collect();
        let p = RangePartitioner::from_sample(typed.iter(), parts, 3);
        let mut last = 0;
        for k in &typed {
            let part = p.partition(k);
            prop_assert!(part >= last, "monotonicity violated");
            last = part;
        }
    }

    /// Bucketizing conserves the per-key sums, with or without combine.
    #[test]
    fn bucketize_conserves_key_sums(records in arb_records(300), parts in 1usize..16,
                                    combine in any::<bool>()) {
        let p = HashPartitioner::new(parts);
        let f = sum();
        let (tb, _) = bucketize(&records, &p, combine.then_some(&f));
        let rebuilt: Vec<Record> =
            tb.buckets.iter().flat_map(|b| b.to_vec()).collect();
        prop_assert_eq!(key_sums(&rebuilt), key_sums(&records));
        // And every record sits in the right bucket.
        for (i, bucket) in tb.buckets.iter().enumerate() {
            for r in bucket.iter() {
                prop_assert_eq!(p.partition(&r.key), i);
            }
        }
    }

    /// Reduce-merge over arbitrary partitionings equals the direct fold.
    #[test]
    fn merge_reduce_is_partition_invariant(records in arb_records(200), cut in 0usize..200) {
        let cut = cut.min(records.len());
        let (a, b) = records.split_at(cut);
        let f = sum();
        let (merged, _) = merge_reduce([a, b], &f);
        prop_assert_eq!(key_sums(&merged), key_sums(&records));
        // One record per distinct key.
        let distinct: std::collections::HashSet<_> =
            records.iter().map(|r| r.key.clone()).collect();
        prop_assert_eq!(merged.len(), distinct.len());
    }

    /// Group-merge collects exactly the multiset of values per key.
    #[test]
    fn merge_group_collects_everything(records in arb_records(150)) {
        let grouped = merge_group([records.as_slice()]);
        let mut counts: HashMap<Key, usize> = HashMap::new();
        for r in &records {
            *counts.entry(r.key.clone()).or_default() += 1;
        }
        prop_assert_eq!(grouped.len(), counts.len());
        for g in &grouped {
            match &g.value {
                Value::List(vs) => prop_assert_eq!(vs.len(), counts[&g.key]),
                other => prop_assert!(false, "expected list, got {:?}", other),
            }
        }
    }

    /// Concat preserves count and total bytes.
    #[test]
    fn merge_concat_is_lossless(records in arb_records(150), cut in 0usize..150) {
        let cut = cut.min(records.len());
        let (a, b) = records.split_at(cut);
        let merged = merge_concat([a, b]);
        prop_assert_eq!(merged.len(), records.len());
        prop_assert_eq!(engine::batch_size(&merged), engine::batch_size(&records));
    }

    /// Join output size equals the sum over shared keys of |L_k|·|R_k|.
    #[test]
    fn join_cardinality_matches_set_theory(left in arb_records(80), right in arb_records(80)) {
        let (joined, _) = merge_join(&left, &right);
        let mut lc: HashMap<Key, usize> = HashMap::new();
        for r in &left { *lc.entry(r.key.clone()).or_default() += 1; }
        let mut rc: HashMap<Key, usize> = HashMap::new();
        for r in &right { *rc.entry(r.key.clone()).or_default() += 1; }
        let expected: usize = lc.iter()
            .filter_map(|(k, &l)| rc.get(k).map(|&r| l * r))
            .sum();
        prop_assert_eq!(joined.len(), expected);
    }

    /// Skew of a hash partitioning is always ≥ 1 and equals P for a single
    /// hot key.
    #[test]
    fn skew_bounds(keys in proptest::collection::vec(any::<i64>(), 1..200), parts in 2usize..32) {
        let typed: Vec<Key> = keys.iter().copied().map(Key::Int).collect();
        let p = HashPartitioner::new(parts);
        let skew = measure_skew(&p, typed.iter());
        prop_assert!(skew >= 1.0 - 1e-9);
        prop_assert!(skew <= parts as f64 + 1e-9);
    }

    /// The configuration text format round-trips arbitrary configurations.
    #[test]
    fn conf_text_roundtrip(entries in proptest::collection::vec(
            (any::<u64>(), any::<bool>(), 1usize..4096), 0..20),
        default in proptest::option::of(1usize..5000),
        override_fixed in any::<bool>())
    {
        let mut conf = WorkloadConf::new();
        conf.default_parallelism = default;
        conf.override_user_fixed = override_fixed;
        for (sig, range, parts) in entries {
            let spec = if range {
                PartitionerSpec::range(parts)
            } else {
                PartitionerSpec::hash(parts)
            };
            // Alternate between stage entries and repartition insertions.
            if sig % 2 == 0 {
                conf.set_stage(sig, spec);
            } else {
                conf.set_repartition(sig, spec);
            }
        }
        let back = WorkloadConf::from_text(&conf.to_text()).expect("own format parses");
        prop_assert_eq!(back, conf);
    }

    /// build_partitioner honours the requested spec for any sample.
    #[test]
    fn build_partitioner_honours_spec(keys in proptest::collection::vec(arb_key(), 0..100),
                                      parts in 1usize..64, range in any::<bool>()) {
        let spec = if range { PartitionerSpec::range(parts) } else { PartitionerSpec::hash(parts) };
        let p = build_partitioner(spec, keys.iter(), 5);
        prop_assert_eq!(p.num_partitions(), parts);
        prop_assert_eq!(p.kind(), spec.kind);
    }
}
