//! Contention behaviour of the job server: weighted-fair scheduling
//! protects interactive tenants' tail latency from a batch tenant,
//! concurrency scales throughput, and admission control (bounded queue,
//! memory ledger) degrades deterministically.

use jobserver::{generate, serve, Policy, ServerConfig};

/// Test-sized engine: small uniform cluster, modest parallelism, so a
/// 16-tenant trace runs in seconds under `cargo test`.
fn engine() -> engine::EngineOptions {
    engine::EngineOptions {
        cluster: simcluster::uniform_cluster(4, 4, 2.0),
        default_parallelism: 8,
        block_size: 128 * 1024,
        workers: 4,
        ..jobserver::server_engine_defaults()
    }
}

fn config(policy: Policy, slots: usize) -> ServerConfig {
    ServerConfig {
        policy,
        slots,
        engine: engine(),
        ..ServerConfig::default()
    }
}

#[test]
fn fair_beats_fifo_on_interactive_p99_under_contention() {
    let trace = generate(16, 224, 5);
    let fair = serve(&trace, &config(Policy::Fair, 8)).unwrap();
    let fifo = serve(&trace, &config(Policy::Fifo, 8)).unwrap();
    eprintln!(
        "fair: p50={:.3} p99={:.3} p99i={:.3} tput={:.4} makespan={:.1}",
        fair.p50_latency, fair.p99_latency, fair.p99_interactive, fair.throughput, fair.makespan
    );
    eprintln!(
        "fifo: p50={:.3} p99={:.3} p99i={:.3} tput={:.4} makespan={:.1}",
        fifo.p50_latency, fifo.p99_latency, fifo.p99_interactive, fifo.throughput, fifo.makespan
    );
    assert_eq!(fair.completed, trace.jobs.len());
    assert_eq!(fifo.completed, trace.jobs.len());
    // The headline: fair-share shields interactive tenants' p99.
    assert!(
        fair.p99_interactive < fifo.p99_interactive,
        "fair p99_interactive {} !< fifo {}",
        fair.p99_interactive,
        fifo.p99_interactive
    );
    // Both policies run the same jobs to the same bytes.
    assert_eq!(fair.tables_text(), fifo.tables_text());
}

#[test]
fn concurrency_scales_throughput_over_serial() {
    let trace = generate(16, 224, 5);
    let wide = serve(&trace, &config(Policy::Fair, 8)).unwrap();
    let serial = serve(&trace, &config(Policy::Fair, 1)).unwrap();
    eprintln!(
        "slots=8 tput={:.4}, slots=1 tput={:.4}, ratio={:.2}",
        wide.throughput,
        serial.throughput,
        wide.throughput / serial.throughput
    );
    assert!(
        wide.throughput >= 2.0 * serial.throughput,
        "16-tenant throughput {} not >= 2x serial {}",
        wide.throughput,
        serial.throughput
    );
}

#[test]
fn bounded_queue_rejects_deterministically() {
    let trace = generate(4, 56, 11);
    let cfg = ServerConfig {
        queue_cap: 2,
        ..config(Policy::Fair, 1)
    };
    let a = serve(&trace, &cfg).unwrap();
    let b = serve(&trace, &cfg).unwrap();
    eprintln!("rejected {} of {}", a.rejected.len(), trace.jobs.len());
    assert!(!a.rejected.is_empty(), "tiny queue should reject");
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.completed + a.rejected.len(), trace.jobs.len());
    // Completed jobs still report the same tables as an unbounded run.
    let full = serve(&trace, &config(Policy::Fair, 1)).unwrap();
    for row in &a.per_job {
        let reference = full.per_job.iter().find(|r| r.id == row.id).unwrap();
        assert_eq!(row.hash, reference.hash);
        assert_eq!(row.rows, reference.rows);
    }
}

#[test]
fn tight_memory_budget_stalls_but_preserves_results() {
    let trace = generate(4, 56, 11);
    let roomy = serve(&trace, &config(Policy::Fair, 8)).unwrap();
    // Budgets near the largest single job's demand: jobs still fit one at
    // a time per tenant, but concurrent dispatches contend for the tiny
    // shared pool and stall.
    let biggest = trace
        .jobs
        .iter()
        .map(|j| jobserver::mem_demand(j.kind, j.scale))
        .max()
        .unwrap();
    let tight = ServerConfig {
        mem_shared: biggest,
        mem_guarantee: 64 << 10,
        ..config(Policy::Fair, 8)
    };
    let got = serve(&trace, &tight).unwrap();
    eprintln!("mem_stalls={} (roomy {})", got.mem_stalls, roomy.mem_stalls);
    assert_eq!(roomy.mem_stalls, 0);
    assert!(got.mem_stalls > 0, "tight ledger should stall dispatches");
    assert_eq!(got.completed, trace.jobs.len());
    assert_eq!(got.tables_text(), roomy.tables_text());
    // Stalls can only delay completions, never speed them up.
    assert!(got.makespan >= roomy.makespan);
}

#[test]
fn cross_job_cache_reuse_is_visible() {
    let trace = generate(4, 56, 11);
    let report = serve(&trace, &config(Policy::Fair, 8)).unwrap();
    eprintln!("cache_hits={}", report.cache_hits);
    // The loadgen draws seeds from a 3-value pool per tenant, so repeat
    // (kind, scale, seed) triples are rare; hits come from repeat jobs.
    assert!(report.per_job.iter().any(|r| r.cache_hit) == (report.cache_hits > 0));
}
