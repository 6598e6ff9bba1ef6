//! Before/after kernels for the data-plane benchmarks.
//!
//! The executor rewrite replaced seed-era kernels: deep-copied task inputs
//! run through one materialized pass per narrow op, a bucketize that
//! re-hashed every key through `SipHash` twice, and reduce-side merges over
//! on-demand tables. The "before" functions here reimplement those seed
//! kernels verbatim so `cargo bench --bench data_plane` and
//! `repro -- dataplane` can quantify the zero-copy data plane against the
//! code it replaced, on identical inputs.

use engine::shuffle::{bucketize_in, Bucket, ConcatMerge, JoinMerge, ReduceMerge, TaskBuckets};
use engine::{
    batch_size, build_partitioner, Context, EngineOptions, GenFn, Key, Partitioner,
    PartitionerSpec, Record, ReduceFn, Value, WorkerPool,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The seed's map-side bucketize: `partition()` re-hashes every key, the
/// combine index re-hashes it a second time through `SipHash`, and buckets
/// grow on demand.
pub fn seed_bucketize(
    records: &[Record],
    partitioner: &dyn Partitioner,
    combine: Option<&ReduceFn>,
) -> (TaskBuckets, u64) {
    let p = partitioner.num_partitions();
    let mut combine_ops = 0u64;
    let buckets: Vec<Vec<Record>> = match combine {
        None => {
            let mut out: Vec<Vec<Record>> = vec![Vec::new(); p];
            for r in records {
                out[partitioner.partition(&r.key)].push(r.clone());
            }
            out
        }
        Some(f) => {
            let mut out: Vec<Vec<Record>> = vec![Vec::new(); p];
            let mut index: Vec<HashMap<engine::Key, usize>> = vec![HashMap::new(); p];
            for r in records {
                let b = partitioner.partition(&r.key);
                match index[b].get(&r.key) {
                    Some(&i) => {
                        let merged = f(&out[b][i].value, &r.value);
                        out[b][i].value = merged;
                        combine_ops += 1;
                    }
                    None => {
                        index[b].insert(r.key.clone(), out[b].len());
                        out[b].push(r.clone());
                    }
                }
            }
            out
        }
    };
    let bytes = buckets.iter().map(|b| batch_size(b)).collect();
    (
        TaskBuckets {
            buckets: buckets.into_iter().map(Arc::new).collect(),
            bytes,
        },
        combine_ops,
    )
}

/// A boxed record-to-records expansion, as in the engine's `FlatMapFn`.
pub type FlatMapOp = Box<dyn Fn(&Record) -> Vec<Record> + Send + Sync>;

/// A narrow op for the chain kernels below.
pub enum ChainOp {
    Map(Box<dyn Fn(&Record) -> Record + Send + Sync>),
    Filter(Box<dyn Fn(&Record) -> bool + Send + Sync>),
    FlatMap(FlatMapOp),
}

/// The seed's narrow-chain execution: deep-copy the task's input slice,
/// then materialize a fresh vector per op.
pub fn seed_chain(input: &[Record], ops: &[ChainOp]) -> Vec<Record> {
    let mut records = input.to_vec();
    for op in ops {
        records = match op {
            ChainOp::Map(f) => records.iter().map(f).collect(),
            ChainOp::Filter(f) => records.into_iter().filter(|r| f(r)).collect(),
            ChainOp::FlatMap(f) => records.iter().flat_map(f).collect(),
        };
    }
    records
}

/// The rewrite's narrow-chain execution: borrow the input slice and stream
/// each record through the whole chain in one pass, cloning only records
/// that survive to the output.
pub fn fused_chain(input: &[Record], ops: &[ChainOp]) -> Vec<Record> {
    let mut out = Vec::new();
    for rec in input {
        feed_ref(ops, rec, &mut out);
    }
    out
}

fn feed_ref(ops: &[ChainOp], rec: &Record, out: &mut Vec<Record>) {
    let Some((head, rest)) = ops.split_first() else {
        out.push(rec.clone());
        return;
    };
    match head {
        ChainOp::Map(f) => feed_owned(rest, f(rec), out),
        ChainOp::Filter(f) => {
            if f(rec) {
                feed_ref(rest, rec, out);
            }
        }
        ChainOp::FlatMap(f) => {
            for r in f(rec) {
                feed_owned(rest, r, out);
            }
        }
    }
}

fn feed_owned(ops: &[ChainOp], rec: Record, out: &mut Vec<Record>) {
    let Some((head, rest)) = ops.split_first() else {
        out.push(rec);
        return;
    };
    match head {
        ChainOp::Map(f) => feed_owned(rest, f(&rec), out),
        ChainOp::Filter(f) => {
            if f(&rec) {
                feed_owned(rest, rec, out);
            }
        }
        ChainOp::FlatMap(f) => {
            for r in f(&rec) {
                feed_owned(rest, r, out);
            }
        }
    }
}

/// The pre-pipelining reduce-side join merge: three `SipHash` hash maps
/// grown on demand, a separate match-collection pass, and an output vector
/// with no capacity hint.
pub fn seed_merge_join(left: &[Record], right: &[Record]) -> (Vec<Record>, u64) {
    let mut order: Vec<Key> = Vec::new();
    let mut table: HashMap<Key, Vec<Value>> = HashMap::new();
    for r in left {
        table
            .entry(r.key.clone())
            .or_insert_with(|| {
                order.push(r.key.clone());
                Vec::new()
            })
            .push(r.value.clone());
    }
    let mut matches: HashMap<Key, Vec<Value>> = HashMap::new();
    let mut probes = 0u64;
    for r in right {
        probes += 1;
        if table.contains_key(&r.key) {
            matches
                .entry(r.key.clone())
                .or_default()
                .push(r.value.clone());
        }
    }
    let mut out = Vec::new();
    for k in order {
        if let Some(rights) = matches.get(&k) {
            for l in &table[&k] {
                for r in rights {
                    out.push(Record::new(
                        k.clone(),
                        Value::Pair(Box::new(l.clone()), Box::new(r.clone())),
                    ));
                }
            }
        }
    }
    (out, probes)
}

/// The pre-pipelining reduce-side co-group merge: two on-demand `SipHash`
/// maps plus an order list, output assembled without a capacity hint.
pub fn seed_merge_cogroup(left: &[Record], right: &[Record]) -> Vec<Record> {
    let mut order: Vec<Key> = Vec::new();
    let mut lefts: HashMap<Key, Vec<Value>> = HashMap::new();
    let mut rights: HashMap<Key, Vec<Value>> = HashMap::new();
    for r in left {
        lefts
            .entry(r.key.clone())
            .or_insert_with(|| {
                order.push(r.key.clone());
                Vec::new()
            })
            .push(r.value.clone());
    }
    for r in right {
        if !lefts.contains_key(&r.key) && !rights.contains_key(&r.key) {
            order.push(r.key.clone());
        }
        rights
            .entry(r.key.clone())
            .or_default()
            .push(r.value.clone());
    }
    order
        .into_iter()
        .map(|k| {
            let l = lefts.remove(&k).unwrap_or_default();
            let r = rights.remove(&k).unwrap_or_default();
            Record::new(
                k,
                Value::Pair(
                    Box::new(Value::List(Arc::new(l))),
                    Box::new(Value::List(Arc::new(r))),
                ),
            )
        })
        .collect()
}

/// Partitions of every stage of the SQL-join workload.
const SQL_JOIN_PARTS: usize = 8;

/// Inputs of the SQL-join workload: the two table generators and the
/// per-key aggregate.
struct SqlJoinTables {
    orders: GenFn,
    returns: GenFn,
    merge: ReduceFn,
}

impl SqlJoinTables {
    fn new(n: usize) -> Self {
        // A row payload shaped like a small SQL tuple: (id, (qty, amount)).
        // Boxed nesting makes cloning a row cost four heap allocations.
        let row = |id: i64, qty: i64, amount: i64| {
            Value::Pair(
                Box::new(Value::Int(id)),
                Box::new(Value::Pair(
                    Box::new(Value::Int(qty)),
                    Box::new(Value::Int(amount)),
                )),
            )
        };
        let orders: GenFn = Arc::new(move |i, p| {
            let (lo, hi) = (i * n / p, (i + 1) * n / p);
            (lo..hi)
                .map(|j| Record::new(Key::Int((j % n) as i64), row(j as i64, 1, 7 * j as i64)))
                .collect()
        });
        let returns: GenFn = Arc::new(move |i, p| {
            let (lo, hi) = (i * n / p, (i + 1) * n / p);
            (lo..hi)
                .map(|j| {
                    Record::new(
                        Key::Int(((j * 3) % n) as i64),
                        row(-(j as i64), 1, 11 * j as i64),
                    )
                })
                .collect()
        });
        let merge: ReduceFn = Arc::new(|a, b| match (a, b) {
            (Value::Pair(a1, rest_a), Value::Pair(b1, rest_b)) => {
                match (rest_a.as_ref(), rest_b.as_ref()) {
                    (Value::Pair(a2, a3), Value::Pair(b2, b3)) => Value::Pair(
                        Box::new(Value::Int(a1.as_int().min(b1.as_int()))),
                        Box::new(Value::Pair(
                            Box::new(Value::Int(a2.as_int() + b2.as_int())),
                            Box::new(Value::Int(a3.as_int().max(b3.as_int()))),
                        )),
                    ),
                    _ => unreachable!("nested pair rows"),
                }
            }
            _ => unreachable!("pair-valued tables"),
        });
        SqlJoinTables {
            orders,
            returns,
            merge,
        }
    }

    /// Size of each generated table as registered in the block store.
    fn table_bytes(n: usize) -> u64 {
        30 * n as u64
    }
}

/// Builds and runs the multi-stage SQL-join workload used by the
/// shuffle-pipeline benchmark: two generated tables each aggregated with
/// `reduce_by_key` (independent sibling stages), joined on the shared key
/// space, rebalanced, then collected. Returns the joined rows.
///
/// The tables carry boxed `Value::Pair` payloads, so every record a
/// stage-barrier engine clones out of a map bucket costs two heap
/// allocations — exactly the copies the push-based exchange elides by
/// moving bucket ownership into the reduce-side merges (compare
/// [`sql_join_barrier`]).
pub fn sql_join_workload(workers: usize, rows: usize) -> Vec<Record> {
    let opts = EngineOptions {
        workers,
        ..crate::paper_engine(SQL_JOIN_PARTS, false)
    };
    let mut ctx = Context::new(opts);
    let tables = SqlJoinTables::new(rows);
    let bytes = SqlJoinTables::table_bytes(rows);
    let orders = ctx.text_file("pipe.orders", bytes, tables.orders, 1e-9, "orders");
    let returns = ctx.text_file("pipe.returns", bytes, tables.returns, 1e-9, "returns");
    let merge = tables.merge;
    let agg_orders = ctx.reduce_by_key(orders, merge.clone(), None, 1e-9, "agg-orders");
    let agg_returns = ctx.reduce_by_key(returns, merge, None, 1e-9, "agg-returns");
    let joined = ctx.join(agg_orders, agg_returns, None, 1e-9, "join-tables");
    let balanced = ctx.repartition(joined, None, "rebalance");
    ctx.collect(balanced, "sql-join-pipeline")
}

/// The stage-barrier data plane the engine ran before every job moved onto
/// the push-based exchange, frozen over the DAG [`sql_join_workload`]
/// builds: the shuffle-pipeline benchmark's "before". Stages run in plan
/// order, and each one is two pool passes with a barrier between them —
/// every task computes its output, then a separate pass bucketizes each
/// output with the cloning [`bucketize_in`]. Only after a map stage's last
/// bucket is cut do its consumer's reduce and join tasks start, each
/// cloning its bucket column out of the shared map outputs before
/// merging. Returns the collected rows. Unlike [`sql_join_workload`] it
/// simulates nothing: only the host data plane is timed.
pub fn sql_join_barrier(workers: usize, rows: usize) -> Vec<Record> {
    let pool = WorkerPool::new(workers);
    let tables = SqlJoinTables::new(rows);
    // Spark's split rule for a block-backed source: one task per block,
    // at least the default parallelism.
    let block_size = EngineOptions::default().block_size;
    let maps = (SqlJoinTables::table_bytes(rows).div_ceil(block_size) as usize).max(SQL_JOIN_PARTS);
    let hash = build_partitioner(PartitionerSpec::hash(SQL_JOIN_PARTS), std::iter::empty(), 0);

    // Phase B of a map stage: the barrier bucketize pass.
    let bucketize = |outs: &[Vec<Record>], combine: Option<&ReduceFn>| -> Vec<Vec<Bucket>> {
        pool.map_with(outs.len(), |i, p| {
            bucketize_in(&outs[i], &*hash, combine, &mut pool.arena(p))
                .0
                .buckets
        })
    };
    // Reduce partition `i`'s column of a finished map stage.
    let column = |stage: &[Vec<Bucket>], i: usize| -> Vec<Bucket> {
        stage.iter().map(|tb| tb[i].clone()).collect()
    };
    // Generate a table, combine it map-side, merge it reduce-side, and
    // bucketize the aggregate for the join.
    let aggregate = |gen: &GenFn| -> Vec<Vec<Bucket>> {
        let outs = pool.map(maps, |i| gen(i, maps));
        let buckets = bucketize(&outs, Some(&tables.merge));
        let aggs = pool.map(SQL_JOIN_PARTS, |i| {
            let mut m = ReduceMerge::new(Arc::clone(&tables.merge));
            for b in column(&buckets, i) {
                m.push_slice(&b);
            }
            m.finish().0
        });
        bucketize(&aggs, None)
    };
    let orders = aggregate(&tables.orders);
    let returns = aggregate(&tables.returns);
    let joined = pool.map(SQL_JOIN_PARTS, |i| {
        let (mut l, mut r) = (Vec::new(), Vec::new());
        for b in column(&orders, i) {
            l.extend_from_slice(&b);
        }
        for b in column(&returns, i) {
            r.extend_from_slice(&b);
        }
        let mut m = JoinMerge::new();
        m.push_left_owned(l);
        m.seal_left();
        m.push_right_owned(r);
        m.finish().0
    });
    let balanced = bucketize(&joined, None);
    let outs = pool.map(SQL_JOIN_PARTS, |i| {
        let mut m = ConcatMerge::new();
        for b in column(&balanced, i) {
            m.push_slice(&b);
        }
        m.finish()
    });
    // The driver clones every task's rows into one growing result vector.
    let mut all = Vec::new();
    for out in &outs {
        all.extend_from_slice(out);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Key, Value};

    fn data(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(Key::Int(i as i64 % 37), Value::Int(i as i64)))
            .collect()
    }

    fn chain() -> Vec<ChainOp> {
        vec![
            ChainOp::Filter(Box::new(|r: &Record| r.value.as_int() % 3 != 0)),
            ChainOp::Map(Box::new(|r: &Record| {
                Record::new(r.key.clone(), Value::Int(r.value.as_int() * 2))
            })),
        ]
    }

    #[test]
    fn fused_chain_matches_seed_chain() {
        let input = data(500);
        let ops = chain();
        assert_eq!(seed_chain(&input, &ops), fused_chain(&input, &ops));
    }

    #[test]
    fn seed_bucketize_matches_current() {
        let input = data(2000);
        let part = engine::HashPartitioner::new(16);
        let sum: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
        for combine in [None, Some(&sum)] {
            let (old, old_ops) = seed_bucketize(&input, &part, combine);
            let (new, new_ops) = engine::shuffle::bucketize(&input, &part, combine);
            assert_eq!(old_ops, new_ops);
            assert_eq!(old.bytes, new.bytes);
            for (a, b) in old.buckets.iter().zip(new.buckets.iter()) {
                assert_eq!(a, b);
            }
        }
    }

    fn sides(n: usize) -> (Vec<Record>, Vec<Record>) {
        let left = (0..n)
            .map(|i| Record::new(Key::Int(i as i64 % 23), Value::Int(i as i64)))
            .collect();
        let right = (0..n)
            .map(|i| Record::new(Key::Int(i as i64 % 31), Value::Int(-(i as i64))))
            .collect();
        (left, right)
    }

    #[test]
    fn seed_merge_join_matches_current() {
        let (left, right) = sides(600);
        assert_eq!(
            seed_merge_join(&left, &right),
            engine::shuffle::merge_join(&left, &right)
        );
    }

    #[test]
    fn seed_merge_cogroup_matches_current() {
        let (left, right) = sides(600);
        assert_eq!(
            seed_merge_cogroup(&left, &right),
            engine::shuffle::merge_cogroup(&left, &right)
        );
    }

    #[test]
    fn sql_join_barrier_matches_the_engine() {
        let sorted = |mut v: Vec<Record>| {
            v.sort_by(|a, b| {
                a.key
                    .cmp(&b.key)
                    .then_with(|| format!("{:?}", a.value).cmp(&format!("{:?}", b.value)))
            });
            v
        };
        let engine = sorted(sql_join_workload(2, 3_000));
        assert!(!engine.is_empty());
        assert_eq!(sorted(sql_join_barrier(2, 3_000)), engine);
    }
}
