//! The four benchmark workloads and the instrumentation they run under.
//!
//! Every workload drives the system only through public crate APIs:
//! `chopper::Autotuner` and the test grid, `workloads::*::execute`, and
//! the engine's public `ReplanHook`. Host time is read from outside the
//! calls; per-layer counts come from what the program already exposes
//! (`Context` metrics, memory/store counters, the trace sink's spans).

use chopper::{DecisionAction, ReplanOptions, TestRunPlan, Workload, WorkloadDb};
use engine::{Context, EngineOptions, ReplanHook, TraceSink, WorkloadConf};
use simcluster::{ClusterSpec, NodeSpec};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::{Clock, Track};
use workloads::{
    KMeans, KMeansConfig, LogReg, LogRegConfig, SkewAgg, SkewAggConfig, Sql, SqlConfig,
};

/// Perfetto process id of the benchmark's own wall spans (the program's
/// ids in `trace::pids` stop at 5).
pub const BENCH_PID: u32 = 7;
/// The track every benchmark span is recorded on.
pub const BENCH_TRACK: Track = Track::new(BENCH_PID, 0);
/// Executor memory of the `governed` workload at paper size: small
/// enough that `memman` spills the cached KMeans input and rereads it.
pub const GOVERNED_MEM: u64 = 4 * 1024 * 1024;
/// Executor memory of the `governed` workload at tiny size.
pub const GOVERNED_MEM_TINY: u64 = 48 * 1024;
/// Skewed-aggregation instances per `skewed` iteration. Which keys run
/// hot depends on the data seed, so one instance's adaptive speed-up
/// swings by ±10% between seeds; summing several instances steadies it.
pub const SKEW_INSTANCES: u64 = 16;
/// Relative tolerance for floating-point answers (SQL revenue sums,
/// KMeans centers, LogReg weights), whose summation order changes with
/// the partition count.
pub const FLOAT_TOLERANCE: f64 = 1e-6;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CHOPPER's offline loop on the paper SQL workload (Fig. 7 setup).
    /// Not listed in `BENCHMARK.json`: its tuned join loses rows on most
    /// seeds (see the package README).
    Tune,
    /// LogReg then KMeans production runs with `chopper-cli run` options.
    Iterative,
    /// The `fig_adaptive` skewed aggregation with adaptive execution on.
    Skewed,
    /// KMeans under a bounded executor memory (spill and reread).
    Governed,
}

impl Kind {
    /// Every workload the benchmark can run.
    pub const ALL: [Kind; 4] = [Kind::Tune, Kind::Iterative, Kind::Skewed, Kind::Governed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tune => "tune",
            Kind::Iterative => "iterative",
            Kind::Skewed => "skewed",
            Kind::Governed => "governed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input size: the paper-scale configurations, or tiny ones for smoke
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Paper-scale inputs (the committed figures' configurations).
    Paper,
    /// Test-size inputs (`*Config::small`, `TestRunPlan::quick`).
    Tiny,
}

/// Host threads the benchmark occupies: engine workers × grid
/// parallelism never exceeds this.
pub fn host_lanes() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 2)
}

/// Counters the benchmark gathers by wrapping the public re-planner hook.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplanStats {
    /// Hook invocations (one per finished job).
    pub calls: u64,
    /// Invocations that returned a new configuration.
    pub adopted: u64,
    /// Host seconds spent inside the hook.
    pub seconds: f64,
}

/// Host-side work of every context a workload ran, grid cells included.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostWork {
    /// Tasks executed.
    pub tasks: u64,
    /// Shuffle buckets filled: Σ map tasks × reduce partitions.
    pub buckets: u64,
}

impl HostWork {
    fn add(&mut self, ctx: &Context) {
        let stages = ctx.all_stages();
        let tasks_of = |id: usize| {
            stages
                .iter()
                .find(|s| s.stage_id == id)
                .map_or(0, |s| s.num_tasks as u64)
        };
        for s in &stages {
            self.tasks += s.num_tasks as u64;
            if s.shuffle_read_bytes > 0 {
                let maps: u64 = s.parents.iter().map(|&p| tasks_of(p)).sum();
                self.buckets += maps * s.num_tasks as u64;
            }
        }
    }
}

/// What the guards and per-layer metrics read from the production
/// contexts, gathered as each finishes so the context can be dropped.
#[derive(Debug, Default, Clone)]
pub struct RunStats {
    /// Final virtual clock of each production context, in run order.
    pub clocks: Vec<f64>,
    /// Jobs whose name an earlier job of the same context carried — the
    /// structurally repeated jobs the re-planner targets.
    pub repeated_jobs: usize,
    /// Virtual tasks beyond their stage's physical partitions (splits).
    pub split_tasks: usize,
    /// Shuffle bytes written.
    pub shuffle_bytes: u64,
    /// Shuffle bytes read across the network.
    pub remote_bytes: u64,
    /// Largest per-stage task skew.
    pub max_skew: f64,
    /// Task placements the simulated cluster made.
    pub placements: usize,
    /// CPU utilization samples of the simulated cluster, in percent.
    pub cpu_pct: Vec<f64>,
    /// Memory-manager counters, summed.
    pub mem: engine::MemCounters,
    /// Block-store reads and writes, summed.
    pub store_reads: u64,
    /// See `store_reads`.
    pub store_writes: u64,
    /// Executor-pool counters, summed.
    pub pool: trace::PoolCounters,
}

impl RunStats {
    fn add(&mut self, ctx: &Context) {
        self.clocks.push(ctx.clock());
        let jobs = ctx.jobs();
        self.repeated_jobs += (0..jobs.len())
            .filter(|&i| jobs[..i].iter().any(|j| j.name == jobs[i].name))
            .count();
        for s in ctx.all_stages() {
            if let Some(p) = s.scheme {
                self.split_tasks += s.num_tasks.saturating_sub(p.partitions);
            }
            self.shuffle_bytes += s.shuffle_write_bytes;
            self.remote_bytes += s.remote_read_bytes;
            self.max_skew = self.max_skew.max(s.task_skew());
            self.placements += s.placements.len();
        }
        self.cpu_pct
            .extend(ctx.sim().trace().points().iter().map(|p| p.cpu_pct));
        let mc = ctx.mem_counters();
        self.mem.spills += mc.spills;
        self.mem.spill_bytes += mc.spill_bytes;
        self.mem.rereads += mc.rereads;
        self.mem.reread_bytes += mc.reread_bytes;
        self.mem.evictions += mc.evictions;
        self.mem.recomputes += mc.recomputes;
        let io = ctx.store().counters();
        self.store_reads += io.reads;
        self.store_writes += io.writes;
        let pool = ctx.trace_summary().pool;
        self.pool.jobs += pool.jobs;
        self.pool.items += pool.items;
        self.pool.stolen += pool.stolen;
        self.pool.idle_epochs += pool.idle_epochs;
    }
}

/// Benchmark-side instrumentation for one iteration: the sink the program
/// records into (disabled for untraced runs), the benchmark's own spans
/// around each call into a layer, and counters from wrapped hooks.
pub struct Probe {
    /// The trace sink handed to every engine run of the iteration.
    pub sink: TraceSink,
    /// Shared by all spans of one workload run.
    run_id: String,
    replan: Arc<Mutex<ReplanStats>>,
    host: Arc<Mutex<HostWork>>,
    runs: Mutex<RunStats>,
}

impl Probe {
    /// A probe whose sink records (`traced`) or is a no-op.
    pub fn new(traced: bool, run_id: &str) -> Probe {
        Probe {
            sink: if traced {
                TraceSink::enabled()
            } else {
                TraceSink::disabled()
            },
            run_id: run_id.to_string(),
            replan: Arc::default(),
            host: Arc::default(),
            runs: Mutex::default(),
        }
    }

    /// Runs `f` inside a benchmark wall span named `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.sink.wall_now();
        let out = f();
        self.record(name, start);
        out
    }

    /// Records a benchmark span from `start` (sink wall seconds) to now
    /// and returns its end.
    pub fn record(&self, name: &str, start: f64) -> f64 {
        let end = self.sink.wall_now();
        if self.sink.is_enabled() {
            self.sink.span(
                Clock::Wall,
                BENCH_TRACK,
                name,
                "bench",
                start,
                end,
                vec![("run", self.run_id.as_str().into())],
            );
        }
        end
    }

    /// Wraps a re-planner so its calls, adoptions and host time are
    /// counted, with one benchmark span per call.
    pub fn wrap_replan(&self, inner: ReplanHook) -> ReplanHook {
        let stats = Arc::clone(&self.replan);
        let sink = self.sink.clone();
        let run_id = self.run_id.clone();
        Arc::new(move |input| {
            let clock = Instant::now();
            let start = sink.wall_now();
            let out = inner(input);
            let seconds = clock.elapsed().as_secs_f64();
            if sink.is_enabled() {
                sink.span(
                    Clock::Wall,
                    BENCH_TRACK,
                    "replan",
                    "bench",
                    start,
                    sink.wall_now(),
                    vec![("run", run_id.as_str().into())],
                );
            }
            let mut s = stats.lock().expect("replan counter lock poisoned");
            s.calls += 1;
            s.adopted += u64::from(out.is_some());
            s.seconds += seconds;
            out
        })
    }

    /// Adds a finished context's tasks and shuffle buckets.
    pub fn count(&self, ctx: &Context) {
        self.host.lock().expect("host work lock poisoned").add(ctx);
    }

    /// Records a finished production context (its host work and run
    /// statistics) and returns its virtual job time.
    pub fn production(&self, ctx: &Context) -> f64 {
        self.count(ctx);
        self.runs
            .lock()
            .expect("run statistics lock poisoned")
            .add(ctx);
        bench::total_time(ctx)
    }

    /// The production-context statistics so far.
    pub fn run_stats(&self) -> RunStats {
        self.runs
            .lock()
            .expect("run statistics lock poisoned")
            .clone()
    }

    /// The re-planner counters so far.
    pub fn replan_stats(&self) -> ReplanStats {
        *self.replan.lock().expect("replan counter lock poisoned")
    }

    /// The host work counted so far.
    pub fn host_work(&self) -> HostWork {
        *self.host.lock().expect("host work lock poisoned")
    }
}

/// A workload wrapper that counts the host work of every run the test
/// grid makes through the public [`Workload`] trait.
struct Counted<'a, W> {
    inner: &'a W,
    probe: &'a Probe,
}

impl<W: Workload> Workload for Counted<'_, W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn full_input_bytes(&self) -> u64 {
        self.inner.full_input_bytes()
    }

    fn run(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> Context {
        let ctx = self.inner.run(opts, conf, scale);
        self.probe.count(&ctx);
        ctx
    }
}

/// The result a run computes, compared against the reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The sorted SQL join table — keys must match exactly, revenues
    /// within [`FLOAT_TOLERANCE`].
    Join(Vec<(i64, f64, f64)>),
    /// `SkewAggResult::fingerprint` of each instance — must match exactly.
    Fingerprints(Vec<u64>),
    /// LogReg weights and KMeans centers, flattened — must agree within
    /// [`FLOAT_TOLERANCE`].
    Vectors(Vec<f64>),
}

impl Answer {
    /// `Ok` when `self` matches `reference` under the answer's rule.
    pub fn check(&self, reference: &Answer) -> Result<(), String> {
        match (self, reference) {
            (Answer::Join(a), Answer::Join(b)) => {
                if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.0 != y.0) {
                    return Err(format!(
                        "join keys differ from the reference ({} vs {} rows)",
                        a.len(),
                        b.len()
                    ));
                }
                let flat = |t: &[(i64, f64, f64)]| -> Vec<f64> {
                    t.iter().flat_map(|&(_, o, r)| [o, r]).collect()
                };
                within_tolerance(&flat(a), &flat(b))
            }
            (Answer::Fingerprints(a), Answer::Fingerprints(b)) if a == b => Ok(()),
            (Answer::Fingerprints(a), Answer::Fingerprints(b)) => Err(format!(
                "table fingerprints {a:016x?} != reference {b:016x?}"
            )),
            (Answer::Vectors(a), Answer::Vectors(b)) if a.len() == b.len() => {
                within_tolerance(a, b)
            }
            _ => Err("answer has a different shape than the reference".to_string()),
        }
    }
}

/// `Ok` when every value is within [`FLOAT_TOLERANCE`] of its reference,
/// relative to `1 + |reference|`.
fn within_tolerance(values: &[f64], reference: &[f64]) -> Result<(), String> {
    let worst = values
        .iter()
        .zip(reference)
        .map(|(x, y)| (x - y).abs() / (1.0 + y.abs()))
        .fold(0.0, f64::max);
    if worst <= FLOAT_TOLERANCE {
        Ok(())
    } else {
        Err(format!(
            "values differ from the reference by {worst:e} (tolerance {FLOAT_TOLERANCE:e})"
        ))
    }
}

/// The static-plan run a workload is checked and compared against.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Its virtual job time (the `speedup` numerator).
    pub job_s: f64,
    /// Its answer.
    pub answer: Answer,
}

/// What the test grid and optimizer did in one `tune` iteration.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// Runs the grid executed (bootstrap included).
    pub grid_runs: usize,
    /// `TestRunPlan::num_runs()` of the configured grid.
    pub expected_runs: usize,
    /// Stages whose scheme the plan retuned.
    pub stages_retuned: usize,
    /// Mean k-fold cross-validation error of the fitted time models.
    pub cv_err: f64,
}

/// One iteration's results; its contexts are summarized in the probe's
/// [`RunStats`].
pub struct Outcome {
    /// Virtual seconds of the production jobs.
    pub job_s: f64,
    /// The production answer.
    pub answer: Answer,
    /// A reference computed inside the iteration (the vanilla run of
    /// `tune`); other workloads compute theirs once per benchmark run.
    pub inline_reference: Option<Reference>,
    /// Test-grid and optimizer statistics (`tune` only).
    pub tuning: Option<Tuning>,
}

/// A workload with its configurations, cluster and engine options built.
pub struct Prepared {
    /// Which workload.
    pub kind: Kind,
    /// Engine workers of production runs.
    pub workers: usize,
    /// Test-grid parallelism (1 when the workload has no grid).
    pub grid_parallelism: usize,
    plan: Plan,
}

enum Plan {
    Tune {
        sql: Sql,
        tuner: Box<chopper::Autotuner>,
    },
    Iterative {
        logreg: LogReg,
        kmeans: KMeans,
        opts: EngineOptions,
        replan: ReplanOptions,
    },
    Skewed {
        aggs: Vec<SkewAgg>,
        opts: EngineOptions,
        replan: ReplanOptions,
    },
    Governed {
        kmeans: KMeans,
        opts: EngineOptions,
    },
}

/// Adds the benchmark seed to a generator's default seed, so `--seed 0`
/// reproduces the committed figures.
fn seeded(default: u64, seed: u64) -> u64 {
    default.wrapping_add(seed)
}

/// The `fig_adaptive` cluster: three 4-core 2 GHz workers on 1 GbE with
/// every byte-denominated capacity scaled by `bench::DATA_SCALE`.
fn skew_cluster() -> ClusterSpec {
    let mut cluster = ClusterSpec::new(
        (0..3)
            .map(|i| NodeSpec::new(&format!("n{i}"), 4, 2.0, 40, 1.0))
            .collect(),
    );
    let scale = bench::DATA_SCALE as f64;
    for node in &mut cluster.nodes {
        node.memory_bytes /= bench::DATA_SCALE;
        node.net_bandwidth /= scale;
        node.disk_bandwidth /= scale;
    }
    cluster.cache_bandwidth /= scale;
    cluster
}

/// Builds the workload's configs, cluster spec and engine options, and
/// returns them with a `Context` over the production options (its worker
/// pool included) so set-up timing covers everything before the first
/// job starts.
pub fn prepare(kind: Kind, size: Size, seed: u64) -> (Prepared, Context) {
    let lanes = host_lanes();
    let paper = size == Size::Paper;
    let (plan, grid_parallelism) = match kind {
        Kind::Tune => {
            let mut cfg = if paper {
                SqlConfig::paper()
            } else {
                SqlConfig::small()
            };
            cfg.seed = seeded(cfg.seed, seed);
            let mut tuner = bench::paper_autotuner();
            if !paper {
                tuner.test_plan = TestRunPlan::quick();
            }
            // Grid cells fan out over every lane, one engine worker each.
            tuner.test_plan.parallelism = lanes;
            tuner.chopper_opts.workers = 1;
            tuner.vanilla_opts.workers = lanes;
            (
                Plan::Tune {
                    sql: Sql::new(cfg),
                    tuner: Box::new(tuner),
                },
                lanes,
            )
        }
        Kind::Iterative => {
            let (mut lr, mut km) = if paper {
                (LogRegConfig::paper(), KMeansConfig::paper())
            } else {
                (LogRegConfig::small(), KMeansConfig::small())
            };
            lr.seed = seeded(lr.seed, seed);
            km.seed = seeded(km.seed, seed);
            // The options `chopper-cli run` builds by default.
            let cluster = simcluster::paper_cluster();
            let replan = ReplanOptions {
                slots: cluster.total_cores(),
                ..ReplanOptions::default()
            };
            let opts = EngineOptions {
                cluster,
                default_parallelism: if paper { 300 } else { 24 },
                workers: lanes,
                pipeline: true,
                batch: true,
                adaptive: true,
                ..EngineOptions::default()
            };
            let plan = Plan::Iterative {
                logreg: LogReg::new(lr),
                kmeans: KMeans::new(km),
                opts,
                replan,
            };
            (plan, 1)
        }
        Kind::Skewed => {
            let cfg = if paper {
                SkewAggConfig::paper()
            } else {
                SkewAggConfig::small()
            };
            // Instance `k` of seed `s` draws seed `s × SKEW_INSTANCES + k`:
            // instances never repeat across seeds, and instance 0 of seed 0
            // is the committed `fig_adaptive` input.
            let aggs = (0..SKEW_INSTANCES)
                .map(|k| {
                    SkewAgg::new(SkewAggConfig {
                        seed: seeded(cfg.seed, seed.wrapping_mul(SKEW_INSTANCES).wrapping_add(k)),
                        ..cfg.clone()
                    })
                })
                .collect();
            let cluster = skew_cluster();
            let replan = ReplanOptions {
                slots: cluster.total_cores(),
                ..ReplanOptions::default()
            };
            let opts = EngineOptions {
                cluster,
                default_parallelism: cfg.partitions,
                workers: lanes,
                adaptive: true,
                ..EngineOptions::default()
            };
            let plan = Plan::Skewed { aggs, opts, replan };
            (plan, 1)
        }
        Kind::Governed => {
            let mut cfg = if paper {
                KMeansConfig::paper()
            } else {
                KMeansConfig::small()
            };
            cfg.seed = seeded(cfg.seed, seed);
            let mut opts = bench::paper_engine(if paper { 300 } else { 24 }, false);
            opts.workers = lanes;
            opts.executor_mem = Some(if paper {
                GOVERNED_MEM
            } else {
                GOVERNED_MEM_TINY
            });
            (
                Plan::Governed {
                    kmeans: KMeans::new(cfg),
                    opts,
                },
                1,
            )
        }
    };
    let prepared = Prepared {
        kind,
        workers: lanes,
        grid_parallelism,
        plan,
    };
    let ctx = Context::new(prepared.production_opts());
    (prepared, ctx)
}

impl Prepared {
    /// Engine options of the workload's (first) production run.
    fn production_opts(&self) -> EngineOptions {
        match &self.plan {
            Plan::Tune { tuner, .. } => tuner.vanilla_opts.clone(),
            Plan::Iterative { opts, .. }
            | Plan::Skewed { opts, .. }
            | Plan::Governed { opts, .. } => opts.clone(),
        }
    }

    /// Runs the workload's job set once under `probe`.
    pub fn iterate(&self, probe: &Probe) -> Outcome {
        let traced = |opts: &EngineOptions| EngineOptions {
            trace: probe.sink.clone(),
            ..opts.clone()
        };
        match &self.plan {
            Plan::Tune { sql, tuner } => {
                let mut tuner = (**tuner).clone();
                tuner.vanilla_opts.trace = probe.sink.clone();
                tuner.chopper_opts.trace = probe.sink.clone();
                tuner.optimizer.trace = probe.sink.clone();
                let none = WorkloadConf::new();
                let vanilla = probe.span("run", || sql.execute(&tuner.vanilla_opts, &none, 1.0));
                let vanilla_s = probe.production(&vanilla.ctx);
                let full = sql.full_input_bytes();
                let mut db = WorkloadDb::new();
                probe.span("collect", || {
                    db.record_run(
                        sql.name(),
                        chopper::collect_observations(vanilla.ctx.jobs(), full),
                        chopper::collect_dag(vanilla.ctx.jobs(), full),
                    )
                });
                drop(vanilla.ctx);
                let counted = Counted { inner: sql, probe };
                let grid_runs = probe.span("train", || tuner.train(&counted, &mut db));
                let plan = probe.span("plan", || tuner.plan(sql, &db));
                let tuned_opts = EngineOptions {
                    workers: self.workers,
                    ..tuner.chopper_opts.clone()
                };
                let tuned = probe.span("run", || sql.execute(&tuned_opts, &plan.conf, 1.0));
                let tuned_s = probe.production(&tuned.ctx);
                drop(tuned.ctx);
                let stages_retuned = plan
                    .decisions
                    .iter()
                    .filter(|d| matches!(d.action, DecisionAction::Retune(_)))
                    .count();
                let tuning = Tuning {
                    grid_runs,
                    expected_runs: tuner.test_plan.num_runs(),
                    stages_retuned,
                    cv_err: mean_cv_err(&db, sql.name()),
                };
                Outcome {
                    job_s: tuned_s,
                    answer: Answer::Join(tuned.joined),
                    inline_reference: Some(Reference {
                        job_s: vanilla_s,
                        answer: Answer::Join(vanilla.joined),
                    }),
                    tuning: Some(tuning),
                }
            }
            Plan::Iterative {
                logreg,
                kmeans,
                opts,
                replan,
            } => {
                let opts = EngineOptions {
                    replan: Some(probe.wrap_replan(chopper::replan_hook(replan.clone()))),
                    ..traced(opts)
                };
                let none = WorkloadConf::new();
                let lr = probe.span("run", || logreg.execute(&opts, &none, 1.0));
                let lr_s = probe.production(&lr.ctx);
                drop(lr.ctx);
                let km = probe.span("run", || kmeans.execute(&opts, &none, 1.0));
                let km_s = probe.production(&km.ctx);
                let mut vectors = lr.weights;
                vectors.extend(km.centers.iter().flatten());
                Outcome {
                    job_s: lr_s + km_s,
                    answer: Answer::Vectors(vectors),
                    inline_reference: None,
                    tuning: None,
                }
            }
            Plan::Skewed { aggs, opts, replan } => {
                let mut prints = Vec::new();
                for agg in aggs {
                    // A fresh hook per instance: each is its own job set.
                    let opts = EngineOptions {
                        replan: Some(probe.wrap_replan(chopper::replan_hook(replan.clone()))),
                        ..traced(opts)
                    };
                    let out = probe.span("run", || agg.execute(&opts, &WorkloadConf::new(), 1.0));
                    probe.production(&out.ctx);
                    prints.push(out.fingerprint());
                }
                Outcome {
                    // The committed figures total skewagg by its final clock.
                    job_s: probe.run_stats().clocks.iter().sum(),
                    answer: Answer::Fingerprints(prints),
                    inline_reference: None,
                    tuning: None,
                }
            }
            Plan::Governed { kmeans, opts } => {
                let opts = traced(opts);
                let out = probe.span("run", || kmeans.execute(&opts, &WorkloadConf::new(), 1.0));
                let job_s = probe.production(&out.ctx);
                Outcome {
                    job_s,
                    answer: Answer::Vectors(out.centers.into_iter().flatten().collect()),
                    inline_reference: None,
                    tuning: None,
                }
            }
        }
    }

    /// The static-plan reference on one worker: adaptive execution and
    /// re-planning off, and for `governed` an ungoverned executor. `None`
    /// for `tune`, whose vanilla run inside each iteration is its
    /// reference.
    pub fn reference(&self) -> Option<Reference> {
        let static_plan = |opts: &EngineOptions| EngineOptions {
            workers: 1,
            adaptive: false,
            replan: None,
            ..opts.clone()
        };
        let none = WorkloadConf::new();
        match &self.plan {
            Plan::Tune { .. } => None,
            Plan::Iterative {
                logreg,
                kmeans,
                opts,
                ..
            } => {
                let opts = static_plan(opts);
                let lr = logreg.execute(&opts, &none, 1.0);
                let km = kmeans.execute(&opts, &none, 1.0);
                let mut vectors = lr.weights;
                vectors.extend(km.centers.iter().flatten());
                Some(Reference {
                    job_s: bench::total_time(&lr.ctx) + bench::total_time(&km.ctx),
                    answer: Answer::Vectors(vectors),
                })
            }
            Plan::Skewed { aggs, opts, .. } => {
                let outs: Vec<_> = aggs
                    .iter()
                    .map(|agg| agg.execute(&static_plan(opts), &none, 1.0))
                    .collect();
                Some(Reference {
                    job_s: outs.iter().map(|o| o.ctx.clock()).sum(),
                    answer: Answer::Fingerprints(outs.iter().map(|o| o.fingerprint()).collect()),
                })
            }
            Plan::Governed { kmeans, opts } => {
                let opts = EngineOptions {
                    executor_mem: None,
                    ..static_plan(opts)
                };
                let out = kmeans.execute(&opts, &none, 1.0);
                Some(Reference {
                    job_s: bench::total_time(&out.ctx),
                    answer: Answer::Vectors(out.centers.into_iter().flatten().collect()),
                })
            }
        }
    }
}

/// Mean `chopper::cross_validation_error` (4 folds) over every stage and
/// partitioner kind of the reference DAG that has enough observations.
fn mean_cv_err(db: &WorkloadDb, name: &str) -> f64 {
    let Some(rec) = db.workload(name) else {
        return 0.0;
    };
    let Some(reference) = rec.reference_run() else {
        return 0.0;
    };
    let errs: Vec<f64> = reference
        .dag
        .iter()
        .flat_map(|stage| {
            [
                engine::PartitionerKind::Hash,
                engine::PartitionerKind::Range,
            ]
            .into_iter()
            .filter_map(|kind| {
                chopper::cross_validation_error(rec.observations(stage.signature, kind), 4)
            })
        })
        .collect();
    if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}
