//! Failure injection (paper Section VI future work: "we will also explore
//! how CHOPPER behaves under failures"): degrade and fail nodes mid-
//! workload and watch the engine route around them — results stay correct,
//! stages stretch, and restoring the slow node recovers throughput.
//!
//! Faults come from a [`FaultPlan`] whose events are timed on the virtual
//! clock. That clock is deterministic, so the example builds its plan one
//! event at a time: it replays the workload under the plan so far, reads
//! the clock at the end of the latest round, and schedules the next event
//! there. Every replay reproduces the earlier rounds exactly.
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```

use engine::{
    Context, EngineOptions, FaultPlan, Key, NodeLoss, Record, ReduceFn, Straggler, Value,
};
use std::sync::Arc;

/// Caches a dataset, then runs `rounds` aggregation rounds under `plan`.
/// Returns each round's (distinct keys, duration, clock at its end).
fn run(plan: &FaultPlan, rounds: usize) -> Vec<(u64, f64, f64)> {
    let mut ctx = Context::new(EngineOptions {
        cluster: simcluster::paper_cluster(),
        default_parallelism: 300,
        faults: Some(plan.clone()),
        ..EngineOptions::default()
    });
    let data: Vec<Record> = (0..600_000)
        .map(|i| Record::new(Key::Int(i % 500), Value::Int(1)))
        .collect();
    let points = ctx.parallelize(data, 300, "events");
    ctx.cache(points);
    ctx.count(points, "materialize");

    let sum: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
    (0..rounds)
        .map(|_| {
            let m = ctx.map(points, Arc::new(|r: &Record| r.clone()), 4e-4, "process");
            let red = ctx.reduce_by_key(m, Arc::clone(&sum), None, 1e-5, "aggregate");
            let keys = ctx.count(red, "round");
            let job = ctx.jobs().last().expect("job ran");
            (keys, job.duration(), job.end)
        })
        .collect()
}

fn main() {
    let mut plan = FaultPlan::default();
    let mut rounds = run(&plan, 1);
    let slow = |factor: f64, at: f64| Straggler {
        node: 1,
        factor,
        at,
    };
    // Node B degrades to quarter speed (contention, thermal throttling...).
    plan.stragglers.push(slow(4.0, rounds[0].2));
    rounds = run(&plan, 2);
    // Node A fails outright: its executor takes no more tasks, and its
    // cached partitions re-home to surviving replicas.
    plan.node_loss.push(NodeLoss {
        node: 0,
        at: rounds[1].2,
    });
    rounds = run(&plan, 3);
    // Node B comes back to full speed; A stays lost.
    plan.stragglers.push(slow(1.0, rounds[2].2));
    rounds = run(&plan, 4);

    let labels = [
        "healthy cluster:         ",
        "node B at quarter speed: ",
        "node A failed as well:   ",
        "node B restored:         ",
    ];
    for (label, (keys, t, _)) in labels.iter().zip(&rounds) {
        println!("{label} {keys} keys in {t:.2}s");
    }

    let [healthy, slow, failed, restored] = [0, 1, 2, 3].map(|i| rounds[i]);
    assert!(rounds.iter().all(|r| r.0 == 500), "results never change");
    assert!(slow.1 > healthy.1, "a straggler node must slow the barrier");
    assert!(
        failed.1 > healthy.1,
        "a 32-core hole must show in the makespan"
    );
    assert!(
        restored.1 < failed.1,
        "restoring node B recovers throughput"
    );
    println!("\nresults identical under every condition; only timing degraded.");
}
