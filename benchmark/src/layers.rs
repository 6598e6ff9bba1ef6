//! Per-layer metrics of a traced iteration.
//!
//! The traced iteration records the program's existing spans and counters
//! (engine data-plane spans, test-grid cell spans, pool counters) plus
//! the benchmark's own spans around each call into a layer. This module
//! turns them into the `per_layer` metrics of `BENCHMARK.json`.

use crate::suite::{Outcome, Probe, BENCH_PID};
use trace::{pids, Clock, Event, Phase};

/// A benchmark span name and the per-layer metric holding its self time.
const SELF_TIME_METRICS: [(&str, &str); 7] = [
    ("iteration", "bench.iteration.self_s"),
    ("run", "bench.run.self_s"),
    ("collect", "bench.collect.self_s"),
    ("train", "bench.train.self_s"),
    ("plan", "bench.plan.self_s"),
    ("replan", "bench.replan.self_s"),
    ("export", "bench.export.self_s"),
];

/// One wall-clock span in seconds.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: f64,
    end: f64,
}

fn wall_spans(events: &[Event], keep: impl Fn(&Event) -> bool) -> Vec<Span> {
    events
        .iter()
        .filter(|e| e.clock == Clock::Wall && keep(e))
        .filter_map(|e| match e.phase {
            Phase::Span { dur_us } => Some(Span {
                name: e.name.clone(),
                start: e.ts_us * 1e-6,
                end: (e.ts_us + dur_us) * 1e-6,
            }),
            _ => None,
        })
        .collect()
}

/// Length of the union of the spans' intervals.
fn union_s(spans: &[Span]) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Self time of each benchmark span: its duration minus the union of its
/// direct benchmark children. Benchmark spans nest (iteration ⊃ run ⊃
/// replan), so these self times sum to the root span's duration.
fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let contains = |outer: &Span, inner: &Span| {
        !std::ptr::eq(outer, inner) && outer.start <= inner.start && inner.end <= outer.end
    };
    spans
        .iter()
        .map(|s| {
            let children: Vec<Span> = spans
                .iter()
                .filter(|c| contains(s, c))
                .filter(|c| !spans.iter().any(|m| contains(s, m) && contains(m, c)))
                .cloned()
                .collect();
            (s.name.clone(), (s.end - s.start) - union_s(&children))
        })
        .collect()
}

/// Collects every per-layer metric of one traced iteration, as `(name,
/// value, unit)`. `untraced_wall_s` is the median untraced iteration time
/// (the base of `trace.overhead`); `traced_wall_s` and `export_s` are the
/// traced iteration and its `chrome_json` export.
pub fn per_layer(
    out: &Outcome,
    probe: &Probe,
    untraced_wall_s: f64,
    traced_wall_s: f64,
    export_s: f64,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let events = probe.sink.events();
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value + 0.0, unit));

    // ---- benchmark spans: self times sum to the traced wall time --------
    let bench = wall_spans(&events, |e| e.track.pid == BENCH_PID);
    let selfs = self_times(&bench);
    for (span, metric) in SELF_TIME_METRICS {
        let v: f64 = selfs
            .iter()
            .filter(|(n, _)| n == span)
            .map(|(_, v)| v)
            .sum();
        put(metric, v, "s");
    }
    let self_sum: f64 = selfs.iter().map(|(_, v)| v).sum();
    if (self_sum - traced_wall_s).abs() > 1e-6 * (1 + bench.len()) as f64 {
        return Err(format!(
            "benchmark span self times sum to {self_sum}s, not the traced wall {traced_wall_s}s"
        ));
    }
    put("bench.traced_wall_s", traced_wall_s, "s");
    let total = |name: &str| {
        bench
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum::<f64>()
    };

    // ---- core ------------------------------------------------------------
    let tuning = out.tuning;
    put("core.train_s", total("train"), "s");
    put("core.plan_s", total("plan"), "s");
    let mut cells: Vec<f64> = wall_spans(&events, |e| {
        e.track.pid == pids::AUTOTUNE && e.cat == "testrun"
    })
    .iter()
    .map(|s| s.end - s.start)
    .collect();
    cells.sort_by(f64::total_cmp);
    put(
        "core.grid_runs",
        tuning.map_or(0.0, |t| t.grid_runs as f64),
        "count",
    );
    put("core.grid_run_p50_s", trace::percentile(&cells, 50.0), "s");
    put(
        "core.grid_run_max_s",
        cells.last().copied().unwrap_or(0.0),
        "s",
    );
    put("core.cv_err", tuning.map_or(0.0, |t| t.cv_err), "ratio");
    put(
        "core.stages_retuned",
        tuning.map_or(0.0, |t| t.stages_retuned as f64),
        "count",
    );
    let replan = probe.replan_stats();
    put("core.replan_calls", replan.calls as f64, "count");
    put("core.replans_adopted", replan.adopted as f64, "count");
    put("core.replan_s", replan.seconds, "s");

    // ---- engine ------------------------------------------------------------
    let pool_phase = |prefix: &'static str| {
        wall_spans(&events, move |e| {
            e.track.pid == pids::POOL && e.track.tid == 1 && e.name.starts_with(prefix)
        })
    };
    let pipeline = wall_spans(&events, |e| e.track.pid == pids::POOL && e.track.tid == 2);
    let compute = pool_phase("compute ");
    let bucketize = pool_phase("bucketize ");
    let dataplane: Vec<Span> = pipeline
        .iter()
        .chain(&compute)
        .chain(&bucketize)
        .cloned()
        .collect();
    let run_s = total("run");
    let dataplane_s = union_s(&dataplane);
    put("engine.run_s", run_s, "s");
    put("engine.dataplane_s", dataplane_s, "s");
    put("engine.driver_s", run_s - dataplane_s, "s");
    put("engine.barrier_compute_s", union_s(&compute), "s");
    put("engine.barrier_bucketize_s", union_s(&bucketize), "s");
    let host = probe.host_work();
    put("engine.tasks", host.tasks as f64, "count");
    put("engine.shuffle_buckets", host.buckets as f64, "count");

    let stats = probe.run_stats();
    const MB: f64 = 1024.0 * 1024.0;
    put("engine.shuffle_mb", stats.shuffle_bytes as f64 / MB, "MB");
    put("engine.remote_mb", stats.remote_bytes as f64 / MB, "MB");
    put("engine.max_skew", stats.max_skew, "ratio");
    put("engine.split_tasks", stats.split_tasks as f64, "count");
    let pool = stats.pool;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    put("engine.pool.items", pool.items as f64, "count");
    put("engine.pool.stolen", pool.stolen as f64, "count");
    put("engine.pool.idle_epochs", pool.idle_epochs as f64, "count");
    put(
        "engine.pool.steal_ratio",
        ratio(pool.stolen, pool.items),
        "ratio",
    );
    put(
        "engine.pool.idle_per_job",
        ratio(pool.idle_epochs, pool.jobs),
        "ratio",
    );

    // ---- simcluster ----------------------------------------------------------
    // `Simulation::events_processed` counts only rack-topology events; on
    // the flat topology every workload here runs, the simulator's work is
    // one placement per task.
    put("simcluster.placements", stats.placements as f64, "count");
    let cpu = &stats.cpu_pct;
    let mean_cpu = if cpu.is_empty() {
        0.0
    } else {
        cpu.iter().sum::<f64>() / cpu.len() as f64
    };
    put("simcluster.cpu_util_pct", mean_cpu, "%");

    // ---- memman and blockstore -------------------------------------------------
    let mc = stats.mem;
    put("memman.spills", mc.spills as f64, "count");
    put("memman.spill_mb", mc.spill_bytes as f64 / MB, "MB");
    put("memman.rereads", mc.rereads as f64, "count");
    put("memman.reread_mb", mc.reread_bytes as f64 / MB, "MB");
    put("memman.evictions", mc.evictions as f64, "count");
    put("memman.recomputes", mc.recomputes as f64, "count");
    put("blockstore.reads", stats.store_reads as f64, "count");
    put("blockstore.writes", stats.store_writes as f64, "count");

    // ---- trace -------------------------------------------------------------------
    put("trace.export_s", export_s, "s");
    put("trace.events", events.len() as f64, "count");
    put(
        "trace.overhead",
        traced_wall_s / untraced_wall_s - 1.0,
        "ratio",
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        let s = [
            span("a", 0.0, 2.0),
            span("b", 1.0, 3.0),
            span("c", 5.0, 6.0),
        ];
        assert!((union_s(&s) - 4.0).abs() < 1e-12);
        assert_eq!(union_s(&[]), 0.0);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let s = [
            span("iteration", 0.0, 10.0),
            span("run", 1.0, 4.0),
            span("replan", 2.0, 2.5),
            span("train", 5.0, 9.0),
        ];
        let selfs = self_times(&s);
        let get = |n: &str| selfs.iter().find(|(m, _)| m == n).map(|(_, v)| *v).unwrap();
        assert!((get("iteration") - 3.0).abs() < 1e-12);
        assert!((get("run") - 2.5).abs() < 1e-12);
        assert!((get("replan") - 0.5).abs() < 1e-12);
        let sum: f64 = selfs.iter().map(|(_, v)| v).sum();
        assert!((sum - 10.0).abs() < 1e-12);
    }
}
