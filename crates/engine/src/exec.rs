//! The engine context: graph building, job execution, and the bridge to the
//! simulated cluster.
//!
//! Execution is *hybrid*: task data is computed for real (in parallel, on
//! host threads) so results, shuffle volumes, and skew are genuine; task
//! *timing* is derived on the simulated heterogeneous cluster, so stage
//! durations reflect the paper's testbed rather than the build machine.

use crate::config::WorkloadConf;
use crate::metrics::{JobMetrics, StageKind, StageMetrics};
use crate::ops::{FilterFn, FlatMapFn, GenFn, MapFn, OpKind, ReduceFn};
use crate::partitioner::PartitionerSpec;
use crate::pool::WorkerPool;
use crate::rdd::{Rdd, RddGraph};
use crate::record::{batch_size, Key, Record};
use crate::stage::{plan_job, MaterializedInfo, Plan, PlanStage, SideDep, StageOutput, StageRoot};
use blockstore::BlockStore;
use faults::{FaultCounters, FaultPlan, NodeLoss, Straggler};
use memman::{Disposition, InsertOutcome, MemCounters, MemoryManager};
use numeric::Reservoir;
use simcluster::{ClusterSpec, NodeId, Simulation, TaskSpec};
use std::collections::HashMap;
use std::sync::Arc;
use trace::TraceSink;

/// Compute units charged per record for partition assignment during shuffle
/// writes.
pub(crate) const PARTITION_COST: f64 = 0.05e-6;
/// Compute units charged per record for range-partitioner sampling.
pub(crate) const SAMPLE_COST: f64 = 0.02e-6;
/// Compute units charged per fetched record during reduce-side merges.
pub(crate) const MERGE_BASE_COST: f64 = 0.03e-6;

/// Engine construction options.
#[derive(Clone)]
pub struct EngineOptions {
    /// The simulated cluster to run on.
    pub cluster: ClusterSpec,
    /// Default task parallelism when nothing else decides (the paper's
    /// experiments use 300).
    pub default_parallelism: usize,
    /// CHOPPER's co-partition-aware scheduling: anchor same-scheme
    /// partitions to the same nodes and prefer data-heavy nodes for reduce
    /// tasks (Section III-C). Off = vanilla Spark placement.
    pub copartition_scheduling: bool,
    /// Host threads used for real data computation.
    pub workers: usize,
    /// Utilization-trace bucket width in virtual seconds.
    pub trace_bucket: f64,
    /// Block size of the backing store.
    pub block_size: u64,
    /// Driver link bandwidth (bytes/s) for result collection (the paper's
    /// master sits on the 1 GbE segment).
    pub driver_bandwidth: f64,
    /// Execution-trace sink. Disabled by default; when enabled, stage
    /// spans, task timelines, shuffle counters, and pool scheduling
    /// counters are recorded. Tracing only observes — simulated timings
    /// are bit-identical with the sink on or off.
    pub trace: TraceSink,
    /// Per-executor unified memory budget in bytes. `None` (the default)
    /// leaves the storage layer ungoverned — the cache never evicts and
    /// nothing spills, preserving the historical behaviour bit-for-bit.
    /// `Some(b)` bounds each node's cached data + task working sets at
    /// `b` bytes, enabling eviction, spill, and recompute paths. Governed
    /// jobs run on the same pipelined data plane as ungoverned ones: every
    /// memory-manager decision is virtual accounting, made while the driver
    /// replays the job's stages in plan order.
    pub executor_mem: Option<u64>,
    /// Ignored: every job runs on the pipelined executor. Kept only so
    /// struct literals that still set it compile; it will be removed once
    /// no caller names it.
    pub pipeline: bool,
    /// Deterministic fault-injection plan. `None` (the default) runs
    /// fault-free — the recovery hooks cost nothing. `Some(plan)` injects
    /// the plan's task failures, node losses, stragglers, and
    /// shuffle-chunk corruption, and enables the recovery machinery:
    /// bounded task retry with exponential backoff, lineage recomputation
    /// of lost shuffle map outputs, replica re-homing of cached
    /// partitions, and scheduler blacklisting of lost nodes. Faults
    /// perturb only the *simulated* side (timings, placements, the
    /// virtual clock); results and metrics byte tables stay bit-identical
    /// to the fault-free run. Mutually exclusive with `executor_mem` —
    /// see [`EngineOptions::validate`].
    pub faults: Option<FaultPlan>,
    /// Ignored: every shuffle bucket is a row bucket. Kept only so struct
    /// literals that still set it compile; it will be removed once no
    /// caller names it.
    pub batch: bool,
    /// Host compute pool to share with other contexts. `None` (the
    /// default) builds a private pool of `workers` lanes. The job server
    /// sets this so every tenant context runs on one pool instead of each
    /// spawning its own threads; each job's data plane occupies the whole
    /// pool for its epoch, and concurrent callers serialize at epoch
    /// granularity inside [`WorkerPool`]. Purely a host-side concern —
    /// virtual timings and results are bit-identical shared or not.
    pub shared_pool: Option<Arc<WorkerPool>>,
    /// Adaptive query execution (the default): after the map side of a
    /// range-partitioned shuffle completes, the engine inspects the
    /// map×partition byte table and splits hot reduce partitions into
    /// sub-tasks before reduce work dispatches (see [`crate::adaptive`]).
    /// Every decision is a pure function of data-plane byte counts, so
    /// results stay bit-identical across worker counts and fault plans;
    /// sorted output tables equal the unsplit run's. `false` restores
    /// static plans bit-for-bit — timings included.
    pub adaptive: bool,
    /// Between-jobs re-optimization hook. After each job the engine hands
    /// the hook that job's per-stage actuals ([`crate::adaptive::StageActuals`]);
    /// a returned [`WorkloadConf`] replaces the context's configuration
    /// for subsequent jobs. `None` (the default) never re-plans. Installed
    /// by CHOPPER's adaptive layer (`chopper::adaptive::replan`).
    pub replan: Option<crate::adaptive::ReplanHook>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            cluster: simcluster::paper_cluster(),
            default_parallelism: 300,
            copartition_scheduling: false,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            trace_bucket: 10.0,
            block_size: 128 * 1024 * 1024,
            driver_bandwidth: 1e9 / 8.0,
            trace: TraceSink::disabled(),
            executor_mem: None,
            pipeline: true,
            faults: None,
            batch: true,
            shared_pool: None,
            adaptive: true,
            replan: None,
        }
    }
}

impl EngineOptions {
    /// The per-task execution-memory budget implied by `executor_mem`:
    /// the tightest node's budget split across its cores (every core may
    /// host a task concurrently). `None` when ungoverned.
    pub fn per_task_mem_budget(&self) -> Option<u64> {
        let mem = self.executor_mem?;
        let max_cores = self
            .cluster
            .nodes
            .iter()
            .map(|n| n.cores)
            .max()
            .unwrap_or(1)
            .max(1);
        Some(mem / max_cores as u64)
    }

    /// Checks for malformed values and mutually exclusive combinations.
    /// [`Context::new`] panics on an invalid set; the CLI calls this at
    /// parse time so the user gets the message instead of a silent
    /// fallback.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(plan) = &self.faults {
            plan.validate(self.cluster.num_nodes())?;
            if self.executor_mem.is_some() {
                return Err(
                    "--fault-plan cannot be combined with --executor-mem: node-loss \
                     recovery re-homes cached partitions through simulator and \
                     block-store residency without charging the memory manager, \
                     so governed budgets would no longer match what nodes hold — \
                     drop one of the two"
                        .to_string(),
                );
            }
        }
        Ok(())
    }
}

pub(crate) struct Materialized {
    pub(crate) parts: Vec<Arc<Vec<Record>>>,
    pub(crate) homes: Vec<NodeId>,
    pub(crate) partitioning: Option<PartitionerSpec>,
    /// The range bounds the partitions were cut by, when range-partitioned.
    pub(crate) bounds: Option<Arc<[Key]>>,
    pub(crate) producer_stage: usize,
    /// When true the partitions' bytes live in spill files on each home
    /// node's disk, not executor memory: reads charge local disk I/O
    /// instead of memory-resident access. The host-side `Arc`s are kept
    /// so reread data stays byte-identical.
    pub(crate) spilled: bool,
}

pub(crate) struct ShuffleData {
    /// `bytes[map_task][reduce_partition]`: the serialized size of each
    /// bucket the producer published into the exchange.
    pub(crate) bytes: Vec<Vec<u64>>,
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) producer_gid: usize,
    /// The producer stage's task specs, retained only while a fault plan
    /// is active so that map outputs lost to a node failure can be
    /// recomputed through lineage (empty otherwise).
    pub(crate) specs: Vec<TaskSpec>,
}

/// Live state of a fault plan over a run: the not-yet-applied timed
/// events, which nodes have been lost, and what the recovery machinery
/// has done so far.
struct FaultState {
    plan: FaultPlan,
    /// Node-loss events sorted by `(at, node)`; `next_loss` indexes the
    /// first event still pending. Sorting makes application order
    /// independent of the order events were written in the plan file.
    losses: Vec<NodeLoss>,
    next_loss: usize,
    /// Slow-node events sorted by `(at, node)`.
    stragglers: Vec<Straggler>,
    next_straggler: usize,
    /// Per-node lost flag; drives replica selection for source reads and
    /// re-homing targets.
    lost: Vec<bool>,
    counters: FaultCounters,
}

impl FaultState {
    fn new(plan: FaultPlan, num_nodes: usize) -> Self {
        let mut losses = plan.node_loss.clone();
        losses.sort_by(|a, b| {
            (a.at, a.node)
                .partial_cmp(&(b.at, b.node))
                .expect("finite event times")
        });
        let mut stragglers = plan.stragglers.clone();
        stragglers.sort_by(|a, b| {
            (a.at, a.node)
                .partial_cmp(&(b.at, b.node))
                .expect("finite event times")
        });
        FaultState {
            plan,
            losses,
            next_loss: 0,
            stragglers,
            next_straggler: 0,
            lost: vec![false; num_nodes],
            counters: FaultCounters::default(),
        }
    }
}

/// The engine context: owns the lineage graph, the simulated cluster, the
/// block store, cached data, and all collected metrics.
pub struct Context {
    graph: RddGraph,
    sim: Simulation,
    store: Arc<BlockStore>,
    conf: WorkloadConf,
    options: EngineOptions,
    /// Persistent compute pool; every stage's data computation and shuffle
    /// bucketing fans out over these threads. Possibly shared with other
    /// contexts (see [`EngineOptions::shared_pool`]).
    pool: Arc<WorkerPool>,
    materialized: HashMap<Rdd, Materialized>,
    anchors: HashMap<(crate::partitioner::PartitionerKind, usize, usize), NodeId>,
    jobs: Vec<JobMetrics>,
    next_stage_id: usize,
    /// Unified memory manager governing the cache (inert when
    /// `executor_mem` is `None`).
    mem: MemoryManager,
    /// RDDs whose cached copy was dropped at least once — a later
    /// re-materialization of one of these counts as a recompute.
    evicted_once: std::collections::BTreeSet<Rdd>,
    /// Cached reads already served per RDD, subtracted from the lineage
    /// child count to get *remaining* references for LRC.
    reads_done: HashMap<Rdd, usize>,
    /// Fault-injection state (plan, pending events, recovery counters);
    /// `None` when running fault-free.
    faults: Option<FaultState>,
}

impl Context {
    /// Creates a context over the given options.
    pub fn new(options: EngineOptions) -> Self {
        if let Err(msg) = options.validate() {
            panic!("invalid engine options: {msg}");
        }
        let mut sim = Simulation::with_trace_bucket(options.cluster.clone(), options.trace_bucket);
        if let Some(multiplier) = options.faults.as_ref().and_then(|p| p.speculation) {
            sim.enable_speculation(multiplier);
        }
        let store = Arc::new(BlockStore::with_config(
            options.cluster.num_nodes(),
            options.block_size,
            3,
        ));
        let pool = match &options.shared_pool {
            Some(shared) => Arc::clone(shared),
            None => Arc::new(WorkerPool::with_trace(
                options.workers,
                options.trace.clone(),
            )),
        };
        if options.trace.is_enabled() {
            options
                .trace
                .name_process(trace::pids::DRIVER, "driver (virtual time)");
            options
                .trace
                .name_thread(trace::Track::new(trace::pids::DRIVER, 0), "stages");
        }
        let mem = MemoryManager::new(options.cluster.num_nodes(), options.executor_mem);
        let faults = options
            .faults
            .clone()
            .map(|plan| FaultState::new(plan, options.cluster.num_nodes()));
        Context {
            graph: RddGraph::new(),
            sim,
            store,
            conf: WorkloadConf::new(),
            options,
            pool,
            materialized: HashMap::new(),
            anchors: HashMap::new(),
            jobs: Vec::new(),
            next_stage_id: 0,
            mem,
            evicted_once: std::collections::BTreeSet::new(),
            reads_done: HashMap::new(),
            faults,
        }
    }

    /// Snapshot of the fault-recovery counters (injected failures,
    /// retries, recomputed map tasks, re-homed partitions). All zero when
    /// no fault plan is installed.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(|f| f.counters.clone())
            .unwrap_or_default()
    }

    /// The persistent compute pool backing this context.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The execution-trace sink this context records into (disabled unless
    /// set via [`EngineOptions::trace`]).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.options.trace
    }

    /// Per-stage summary of every job run so far (task-time percentiles,
    /// skew, shuffle bytes) plus the executor pool's scheduling counters.
    ///
    /// Derived from collected [`StageMetrics`], so it is available whether
    /// or not the trace sink was enabled, and the stage rows are
    /// bit-deterministic across worker counts.
    pub fn trace_summary(&self) -> trace::TraceSummary {
        let mut stages = Vec::new();
        let mut total_s = 0.0f64;
        for job in &self.jobs {
            for m in &job.stages {
                let mut durations = m.task_durations.clone();
                durations.sort_by(|a, b| a.partial_cmp(b).expect("finite task times"));
                stages.push(trace::StageSummaryRow {
                    stage_id: m.stage_id,
                    job_id: m.job_id,
                    name: m.name.clone(),
                    kind: format!("{:?}", m.kind).to_lowercase(),
                    tasks: m.num_tasks,
                    duration_s: m.duration(),
                    p50_task_s: trace::percentile(&durations, 50.0),
                    p95_task_s: trace::percentile(&durations, 95.0),
                    max_task_s: durations.last().copied().unwrap_or(0.0),
                    skew: m.task_skew(),
                    shuffle_read_bytes: m.shuffle_read_bytes,
                    shuffle_write_bytes: m.shuffle_write_bytes,
                    remote_read_bytes: m.remote_read_bytes,
                });
                total_s = total_s.max(m.end);
            }
        }
        trace::TraceSummary {
            stages,
            pool: self.pool.stats(),
            total_s,
        }
    }

    /// A context on the paper's cluster with vanilla-Spark defaults.
    pub fn vanilla() -> Self {
        Context::new(EngineOptions::default())
    }

    // ------------------------------------------------------------------
    // Graph building (delegations to RddGraph)
    // ------------------------------------------------------------------

    /// See [`RddGraph::parallelize`].
    pub fn parallelize(&mut self, data: Vec<Record>, partitions: usize, tag: &'static str) -> Rdd {
        self.graph.parallelize(data, partitions, tag)
    }

    /// Registers `file` in the block store with `total_bytes` and returns a
    /// block-backed source over it. See [`RddGraph::from_blocks`].
    pub fn text_file(
        &mut self,
        file: &str,
        total_bytes: u64,
        gen: GenFn,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.store.create_file(file, total_bytes);
        self.graph.from_blocks(file, gen, cost, tag)
    }

    /// See [`RddGraph::map`].
    pub fn map(&mut self, parent: Rdd, f: MapFn, cost: f64, tag: &'static str) -> Rdd {
        self.graph.map(parent, f, cost, tag)
    }

    /// See [`RddGraph::map_values`].
    pub fn map_values(&mut self, parent: Rdd, f: MapFn, cost: f64, tag: &'static str) -> Rdd {
        self.graph.map_values(parent, f, cost, tag)
    }

    /// See [`RddGraph::flat_map`].
    pub fn flat_map(&mut self, parent: Rdd, f: FlatMapFn, cost: f64, tag: &'static str) -> Rdd {
        self.graph.flat_map(parent, f, cost, tag)
    }

    /// See [`RddGraph::filter`].
    pub fn filter(&mut self, parent: Rdd, f: FilterFn, cost: f64, tag: &'static str) -> Rdd {
        self.graph.filter(parent, f, cost, tag)
    }

    /// See [`RddGraph::sample`].
    pub fn sample(&mut self, parent: Rdd, fraction: f64, seed: u64, tag: &'static str) -> Rdd {
        self.graph.sample(parent, fraction, seed, tag)
    }

    /// See [`RddGraph::reduce_by_key`].
    pub fn reduce_by_key(
        &mut self,
        parent: Rdd,
        f: ReduceFn,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.graph.reduce_by_key(parent, f, scheme, cost, tag)
    }

    /// See [`RddGraph::group_by_key`].
    pub fn group_by_key(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.graph.group_by_key(parent, scheme, cost, tag)
    }

    /// See [`RddGraph::repartition`].
    pub fn repartition(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        tag: &'static str,
    ) -> Rdd {
        self.graph.repartition(parent, scheme, tag)
    }

    /// See [`RddGraph::join`].
    pub fn join(
        &mut self,
        left: Rdd,
        right: Rdd,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.graph.join(left, right, scheme, cost, tag)
    }

    /// See [`RddGraph::co_group`].
    pub fn co_group(
        &mut self,
        left: Rdd,
        right: Rdd,
        scheme: Option<PartitionerSpec>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.graph.co_group(left, right, scheme, cost, tag)
    }

    /// Marks an RDD for caching; its partitions are retained the first time
    /// a job computes them.
    pub fn cache(&mut self, rdd: Rdd) {
        self.graph.set_cached(rdd);
    }

    /// Releases a cached RDD: drops its pin reference and frees the
    /// materialization (memory residency, storage-region accounting, and
    /// any spill files) immediately. A later read recomputes from lineage.
    pub fn uncache(&mut self, rdd: Rdd) {
        self.graph.set_uncached(rdd);
        if let Some(freed) = self.mem.release(rdd.0 as u64) {
            for (n, &b) in freed.iter().enumerate() {
                self.sim.release_resident(n, b);
            }
        }
        if let Some(mat) = self.materialized.remove(&rdd) {
            if mat.spilled {
                for i in 0..mat.parts.len() {
                    self.store.delete_file(&spill_name(rdd, i));
                }
            }
            // Ungoverned contexts track residency outside the manager.
            if !self.governed() {
                for (i, part) in mat.parts.iter().enumerate() {
                    self.sim.release_resident(mat.homes[i], batch_size(part));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Derived operators (sugar over the primitives, as in Spark)
    // ------------------------------------------------------------------

    /// Distinct keys: one record per key, value taken from the first
    /// occurrence (a shuffle, like Spark's `distinct`).
    pub fn distinct_by_key(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        tag: &'static str,
    ) -> Rdd {
        self.graph.reduce_by_key(
            parent,
            Arc::new(|a: &crate::record::Value, _b: &crate::record::Value| a.clone()),
            scheme,
            0.05e-6,
            tag,
        )
    }

    /// Occurrence count per key (the word-count kernel): maps every record
    /// to `(key, 1)` and sums.
    pub fn count_by_key(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        tag: &'static str,
    ) -> Rdd {
        let ones = self.graph.map_values(
            parent,
            Arc::new(|r: &Record| Record::new(r.key.clone(), crate::record::Value::Int(1))),
            0.05e-6,
            tag,
        );
        self.graph.reduce_by_key(
            ones,
            Arc::new(|a: &crate::record::Value, b: &crate::record::Value| {
                crate::record::Value::Int(a.as_int() + b.as_int())
            }),
            scheme,
            0.05e-6,
            tag,
        )
    }

    /// Re-keys records by a derived key (Spark's `keyBy`).
    pub fn key_by(
        &mut self,
        parent: Rdd,
        f: Arc<dyn Fn(&Record) -> crate::record::Key + Send + Sync>,
        cost: f64,
        tag: &'static str,
    ) -> Rdd {
        self.graph.map(
            parent,
            Arc::new(move |r: &Record| Record::new(f(r), r.value.clone())),
            cost,
            tag,
        )
    }

    /// Per-key mean of numeric values, computed with a (sum, count)
    /// accumulator and a value-side division — the common aggregation
    /// pattern the paper's workloads use.
    pub fn mean_by_key(
        &mut self,
        parent: Rdd,
        scheme: Option<PartitionerSpec>,
        tag: &'static str,
    ) -> Rdd {
        use crate::record::Value;
        let paired = self.graph.map_values(
            parent,
            Arc::new(|r: &Record| {
                Record::new(
                    r.key.clone(),
                    Value::Pair(
                        Box::new(Value::Float(r.value.as_float())),
                        Box::new(Value::Int(1)),
                    ),
                )
            }),
            0.05e-6,
            tag,
        );
        let summed = self.graph.reduce_by_key(
            paired,
            Arc::new(|a: &Value, b: &Value| match (a, b) {
                (Value::Pair(sa, ca), Value::Pair(sb, cb)) => Value::Pair(
                    Box::new(Value::Float(sa.as_float() + sb.as_float())),
                    Box::new(Value::Int(ca.as_int() + cb.as_int())),
                ),
                other => panic!("malformed mean accumulator {other:?}"),
            }),
            scheme,
            0.1e-6,
            tag,
        );
        self.graph.map_values(
            summed,
            Arc::new(|r: &Record| match &r.value {
                Value::Pair(s, c) => Record::new(
                    r.key.clone(),
                    Value::Float(s.as_float() / c.as_int().max(1) as f64),
                ),
                other => panic!("malformed mean accumulator {other:?}"),
            }),
            0.05e-6,
            tag,
        )
    }

    /// CHOPPER's repartition-insertion hook (Algorithm 3): if the active
    /// configuration requests a repartition after `rdd`'s stage, returns a
    /// repartitioned RDD; otherwise returns `rdd` unchanged. Workload
    /// builders call this at every point where an inserted phase is legal.
    pub fn maybe_insert_repartition(&mut self, rdd: Rdd) -> Rdd {
        let sig = self.graph.node(rdd).signature;
        match self.conf.repartition_after(sig) {
            Some(scheme) => self
                .graph
                .repartition(rdd, Some(scheme), "inserted-repartition"),
            None => rdd,
        }
    }

    // ------------------------------------------------------------------
    // Configuration / introspection
    // ------------------------------------------------------------------

    /// Replaces the active workload configuration (CHOPPER reads updates at
    /// stage boundaries; our jobs re-plan per action, which is equivalent
    /// since plans are built lazily).
    pub fn set_conf(&mut self, conf: WorkloadConf) {
        self.conf = conf;
    }

    /// Parses and applies a Fig. 6-style configuration file.
    pub fn set_conf_text(&mut self, text: &str) -> Result<(), String> {
        self.conf = WorkloadConf::from_text(text)?;
        Ok(())
    }

    /// The active configuration.
    pub fn conf(&self) -> &WorkloadConf {
        &self.conf
    }

    /// Engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The lineage graph (read-only).
    pub fn graph(&self) -> &RddGraph {
        &self.graph
    }

    /// The simulation (virtual clock, traces, IO stats).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// The backing block store.
    pub fn store(&self) -> &Arc<BlockStore> {
        &self.store
    }

    /// Current virtual time.
    pub fn clock(&self) -> f64 {
        self.sim.clock()
    }

    /// All job metrics collected so far.
    pub fn jobs(&self) -> &[JobMetrics] {
        &self.jobs
    }

    /// All stage metrics across jobs, in execution order.
    pub fn all_stages(&self) -> Vec<&StageMetrics> {
        self.jobs.iter().flat_map(|j| j.stages.iter()).collect()
    }

    /// The signature of an RDD (for configuration targeting).
    pub fn signature(&self, rdd: Rdd) -> u64 {
        self.graph.node(rdd).signature
    }

    // ------------------------------------------------------------------
    // Actions
    // ------------------------------------------------------------------

    /// Runs the job computing `rdd` and returns all its records.
    pub fn collect(&mut self, rdd: Rdd, name: &str) -> Vec<Record> {
        self.run_job(rdd, name)
    }

    /// Runs the job computing `rdd` and returns its record count.
    pub fn count(&mut self, rdd: Rdd, name: &str) -> u64 {
        self.run_job(rdd, name).len() as u64
    }

    fn mat_infos(&self) -> HashMap<Rdd, MaterializedInfo> {
        self.materialized
            .iter()
            .map(|(&r, m)| {
                (
                    r,
                    MaterializedInfo {
                        partitions: m.parts.len(),
                        partitioning: m.partitioning,
                        bounds: m.bounds.clone(),
                    },
                )
            })
            .collect()
    }

    fn run_job(&mut self, final_rdd: Rdd, name: &str) -> Vec<Record> {
        // Reclaim dead cache entries before planning: at this point the
        // driver has built every consumer this job (and any iteration
        // preceding it) will use, so a zero-ref entry really is garbage.
        // Sweeping *before* the plan also guarantees the plan never
        // schedules a CachedRead of an entry the sweep removed.
        self.sweep_unreferenced();
        let plan = plan_job(
            &self.graph,
            final_rdd,
            &self.conf,
            self.options.default_parallelism,
            &self.mat_infos(),
        );
        let job_id = self.jobs.len();
        let job_start = self.sim.clock();

        // The whole job's data plane runs up front on the host pool — map
        // tasks push buckets into per-shuffle exchanges, reduce tasks merge
        // incrementally, sibling stages overlap — then the loop below
        // replays each stage's virtual-cluster accounting in plan order
        // from the recorded per-stage data. Memory governance lives in that
        // replay: spills keep their host `Arc`s, and the pin floor in
        // `lineage_refs` keeps every entry this plan reads from being
        // dropped, so eviction decisions never change what the data plane
        // already read.
        let num_tasks: Vec<usize> = plan
            .stages
            .iter()
            .map(|s| self.stage_partitions(&plan, s).max(1))
            .collect();
        let stage_data = crate::exchange::run_pipelined(crate::exchange::PipelineInput {
            graph: &self.graph,
            plan: &plan,
            num_tasks: &num_tasks,
            materialized: &self.materialized,
            pool: &self.pool,
            job_id,
            trace: &self.options.trace,
            adaptive: self.options.adaptive,
        });

        let mut shuffles: Vec<Option<ShuffleData>> = Vec::new();
        shuffles.resize_with(plan.shuffles.len(), || None);
        let mut stage_metrics: Vec<StageMetrics> = Vec::new();
        let mut result: Vec<Record> = Vec::new();

        for ((idx, stage), recorded) in plan.stages.iter().enumerate().zip(stage_data) {
            let gid = self.next_stage_id;
            self.next_stage_id += 1;
            let (metrics, output_records) =
                self.exec_stage(&plan, idx, stage, gid, job_id, &mut shuffles, recorded);
            stage_metrics.push(metrics);
            if let Some(records) = output_records {
                result = records;
            }
        }

        // Driver-side result collection over the master's link.
        let result_bytes = batch_size(&result);
        if result_bytes > 0 {
            self.sim
                .advance(result_bytes as f64 / self.options.driver_bandwidth);
        }

        // Between-jobs re-optimization: hand the finished job's actuals to
        // the installed hook; a returned configuration replaces `conf` for
        // subsequent jobs. Decisions and their trigger state are recorded
        // as virtual-clock trace instants on the driver track.
        if let Some(hook) = self.options.replan.clone() {
            let actuals: Vec<crate::adaptive::StageActuals> = stage_metrics
                .iter()
                .enumerate()
                .map(|(idx, m)| {
                    let write_bucket_skew = match plan.stages[idx].output {
                        StageOutput::ShuffleWrite(sidx) => shuffles[sidx]
                            .as_ref()
                            .map(|d| {
                                let p = plan.shuffles[sidx].scheme.partitions;
                                let cols: Vec<f64> = (0..p)
                                    .map(|i| d.bytes.iter().map(|b| b[i]).sum::<u64>() as f64)
                                    .collect();
                                trace::skew_ratio(&cols)
                            })
                            .unwrap_or(1.0),
                        StageOutput::Result => 1.0,
                    };
                    crate::adaptive::StageActuals {
                        stage_id: m.stage_id,
                        signature: m.root_signature,
                        kind: m.kind,
                        scheme: m.scheme,
                        configurable: m.configurable,
                        num_tasks: self.stage_partitions(&plan, &plan.stages[idx]).max(1),
                        tasks_run: m.num_tasks,
                        input_records: m.input_records,
                        input_bytes: m.input_bytes,
                        output_bytes: m.output_bytes,
                        shuffle_read_bytes: m.shuffle_read_bytes,
                        shuffle_write_bytes: m.shuffle_write_bytes,
                        write_bucket_skew,
                        duration_s: m.end - m.start,
                        task_skew: m.task_skew(),
                    }
                })
                .collect();
            let input = crate::adaptive::ReplanInput {
                job_id,
                clock: self.sim.clock(),
                conf: self.conf.clone(),
                actuals,
            };
            if let Some(new_conf) = hook(&input) {
                if self.options.trace.is_enabled() {
                    use trace::{pids, Clock, Track};
                    self.options.trace.instant(
                        Clock::Virtual,
                        Track::new(pids::DRIVER, 0),
                        format!("j{job_id} adaptive replan"),
                        "adaptive",
                        input.clock,
                        vec![
                            ("job", job_id.into()),
                            ("decisions", new_conf.stages.len().into()),
                        ],
                    );
                }
                self.conf = new_conf;
            }
        }

        self.jobs.push(JobMetrics {
            job_id,
            name: name.to_string(),
            stages: stage_metrics,
            start: job_start,
            end: self.sim.clock(),
        });
        result
    }

    /// Number of tasks a plan stage runs.
    fn stage_partitions(&self, plan: &Plan, stage: &PlanStage) -> usize {
        match &stage.root {
            StageRoot::Source(rdd) => self.source_partitions(*rdd, plan.default_parallelism),
            StageRoot::ShuffleRead { shuffle, .. } => plan.shuffles[*shuffle].scheme.partitions,
            StageRoot::JoinRead { wide, .. } => plan.schemes[wide].partitions,
            StageRoot::CachedRead(rdd) => self.materialized[rdd].parts.len(),
        }
    }

    fn source_partitions(&self, rdd: Rdd, default_parallelism: usize) -> usize {
        let node = self.graph.node(rdd);
        match &node.op {
            OpKind::SourceCollection { partitions, .. } => *partitions,
            OpKind::SourceBlocks {
                file, partitions, ..
            } => {
                if let Some(p) = partitions {
                    if !self.conf.override_user_fixed {
                        return *p;
                    }
                }
                if let Some(s) = self.conf.stage_scheme(node.signature) {
                    return s.partitions;
                }
                if let Some(p) = partitions {
                    return *p;
                }
                let blocks = self
                    .store
                    .file_blocks(file)
                    .map(|b| b.len())
                    .unwrap_or(1)
                    .max(1);
                blocks.max(default_parallelism)
            }
            other => panic!("source_partitions on non-source op {other:?}"),
        }
    }

    /// Known partitioning of a stage's root output.
    fn root_partitioning(&self, plan: &Plan, stage: &PlanStage) -> Option<PartitionerSpec> {
        match &stage.root {
            StageRoot::Source(_) => None,
            StageRoot::ShuffleRead { wide, .. } | StageRoot::JoinRead { wide, .. } => {
                plan.schemes.get(wide).copied()
            }
            StageRoot::CachedRead(rdd) => self.materialized[rdd].partitioning,
        }
    }

    /// Partitioning of `target` given the stage's root partitioning and the
    /// narrow chain leading to it.
    fn partitioning_at(
        &self,
        root_part: Option<PartitionerSpec>,
        chain: &[Rdd],
        target: Rdd,
    ) -> Option<PartitionerSpec> {
        let mut cur = root_part;
        for &r in chain {
            if !self.graph.node(r).op.preserves_partitioning() {
                cur = None;
            }
            if r == target {
                return cur;
            }
        }
        cur
    }

    /// Replays one stage's virtual-cluster side — fetch accounting,
    /// simulation, memory governance, cache persistence, metrics, trace —
    /// from the data-plane record the pipelined executor left in
    /// `recorded`.
    #[allow(clippy::too_many_arguments)]
    fn exec_stage(
        &mut self,
        plan: &Plan,
        plan_idx: usize,
        stage: &PlanStage,
        gid: usize,
        job_id: usize,
        shuffles: &mut [Option<ShuffleData>],
        recorded: crate::exchange::StageData,
    ) -> (StageMetrics, Option<Vec<Record>>) {
        let num_tasks = self.stage_partitions(plan, stage).max(1);
        // Fault plan: apply node-loss and slow-node events whose virtual
        // time has passed before this stage reads any placement state, so
        // preps see re-homed data and the scheduler sees the shrunk
        // topology. Recovery (lineage recompute + replica re-homing) runs
        // inside. The host data plane already ran to completion, so in
        // simulated terms the pipeline's consumers are parked while a lost
        // producer's map outputs are recomputed here.
        if self.faults.is_some() {
            self.apply_due_faults(shuffles);
        }

        // ---------------- Phase A: per-task input accounting -------------
        let mut preps: Vec<TaskPrep> = Vec::with_capacity(num_tasks);
        let mut parents_gids: Vec<usize> = Vec::new();
        // Cached RDDs consumed by this stage, for lineage ref-counting.
        let mut cached_reads: Vec<Rdd> = Vec::new();
        // Adaptive hot-partition split, decided from the producer's
        // map×partition byte table — the same decision the pipelined
        // executor made before any reduce work dispatched. Purely
        // data-plane inputs: identical across worker counts and fault
        // plans. `None` when `--adaptive off`, the stage is ineligible, or
        // the column skew sits below the trigger.
        let mut split_plan: Option<crate::adaptive::SplitPlan> = None;
        // Producer task placements, kept for per-sub fetch construction.
        let mut producer_nodes: Vec<NodeId> = Vec::new();
        match &stage.root {
            StageRoot::Source(rdd) => match &self.graph.node(*rdd).op {
                OpKind::SourceCollection { .. } => {
                    preps.resize_with(num_tasks, TaskPrep::default);
                }
                OpKind::SourceBlocks { file, .. } => {
                    let blocks = self.store.read_file(file).unwrap_or_default();
                    let file_len: u64 = blocks.iter().map(|b| b.size).sum();
                    let per_task = file_len / num_tasks as u64;
                    // Once a node is lost, prefer the deterministic
                    // serving replica the block store selects over the
                    // raw replica list (whose primary may be dead).
                    let down: Option<Vec<bool>> = self
                        .faults
                        .as_ref()
                        .filter(|f| f.counters.nodes_lost > 0)
                        .map(|f| f.lost.clone());
                    for i in 0..num_tasks {
                        let bi = i * blocks.len().max(1) / num_tasks;
                        let preferred = if blocks.is_empty() {
                            Vec::new()
                        } else if let Some(down) = &down {
                            match self.store.select_replica(file, bi, down) {
                                Some(n) => vec![n],
                                None => Vec::new(),
                            }
                        } else {
                            blocks[bi].replicas.clone()
                        };
                        preps.push(TaskPrep {
                            local_read_bytes: per_task,
                            preferred,
                            ..TaskPrep::default()
                        });
                    }
                }
                other => unreachable!("source stage over {other:?}"),
            },
            StageRoot::CachedRead(rdd) => {
                let mat = &self.materialized[rdd];
                parents_gids.push(mat.producer_stage);
                for i in 0..num_tasks {
                    let bytes = batch_size(&mat.parts[i]);
                    preps.push(if mat.spilled {
                        // Bytes live in a spill file on the home node's
                        // disk: the read is local disk I/O (feeding the
                        // Fig. 14 transaction counters), not a memory-
                        // resident fetch.
                        TaskPrep {
                            local_read_bytes: bytes,
                            preferred: vec![mat.homes[i]],
                            ..TaskPrep::default()
                        }
                    } else {
                        TaskPrep {
                            fetches: vec![(mat.homes[i], bytes)],
                            fetch_chunks: 1,
                            preferred: vec![mat.homes[i]],
                            ..TaskPrep::default()
                        }
                    });
                }
                cached_reads.push(*rdd);
            }
            StageRoot::ShuffleRead { shuffle, .. } => {
                let data = shuffles[*shuffle]
                    .as_ref()
                    .expect("producer stage ran first");
                parents_gids.push(data.producer_gid);
                if self.options.adaptive
                    && crate::adaptive::split_eligible(plan, &self.graph, plan_idx).is_some()
                {
                    let cols: Vec<u64> = (0..num_tasks)
                        .map(|i| data.bytes.iter().map(|b| b[i]).sum())
                        .collect();
                    split_plan = crate::adaptive::plan_splits(&cols);
                    if split_plan.is_some() {
                        producer_nodes = data.nodes.clone();
                    }
                }
                for i in 0..num_tasks {
                    preps.push(TaskPrep {
                        fetches: aggregate_fetches(
                            data.nodes.iter().zip(data.bytes.iter().map(|b| b[i])),
                        ),
                        fetch_chunks: data.bytes.iter().filter(|b| b[i] > 0).count(),
                        ..TaskPrep::default()
                    });
                }
            }
            StageRoot::JoinRead { left, right, .. } => {
                // Per-task (fetches, local disk bytes, chunks) of one side.
                type SideParts = (Vec<Vec<(NodeId, u64)>>, Vec<u64>, Vec<usize>);
                let side = |dep: &SideDep,
                            parents_gids: &mut Vec<usize>,
                            cached_reads: &mut Vec<Rdd>|
                 -> SideParts {
                    match dep {
                        SideDep::Shuffle(s) => {
                            let data = shuffles[*s].as_ref().expect("producer stage ran first");
                            parents_gids.push(data.producer_gid);
                            let fetches = (0..num_tasks)
                                .map(|i| {
                                    aggregate_fetches(
                                        data.nodes.iter().zip(data.bytes.iter().map(|b| b[i])),
                                    )
                                })
                                .collect();
                            // One chunk per producer task with data for us;
                            // a bucket is non-empty iff its byte count is
                            // (every record encodes ≥ 2 bytes).
                            let chunks = (0..num_tasks)
                                .map(|i| data.bytes.iter().filter(|b| b[i] > 0).count())
                                .collect();
                            (fetches, vec![0; num_tasks], chunks)
                        }
                        SideDep::Narrow(rdd) => {
                            let mat = &self.materialized[rdd];
                            parents_gids.push(mat.producer_stage);
                            cached_reads.push(*rdd);
                            let mut fetches = Vec::with_capacity(num_tasks);
                            let mut local = Vec::with_capacity(num_tasks);
                            let mut chunks = Vec::with_capacity(num_tasks);
                            for i in 0..num_tasks {
                                let bytes = batch_size(&mat.parts[i]);
                                chunks.push(usize::from(!mat.parts[i].is_empty()));
                                if mat.spilled {
                                    // Spilled side: local disk reread.
                                    fetches.push(Vec::new());
                                    local.push(bytes);
                                } else {
                                    fetches.push(vec![(mat.homes[i], bytes)]);
                                    local.push(0);
                                }
                            }
                            (fetches, local, chunks)
                        }
                    }
                };
                let (lfetches, llocal, lchunks) = side(left, &mut parents_gids, &mut cached_reads);
                let (rfetches, rlocal, rchunks) = side(right, &mut parents_gids, &mut cached_reads);
                for i in 0..num_tasks {
                    let fetches = lfetches[i].iter().chain(&rfetches[i]);
                    preps.push(TaskPrep {
                        fetch_chunks: lchunks[i] + rchunks[i],
                        fetches: aggregate_fetches(fetches.map(|(n, b)| (n, *b))),
                        local_read_bytes: llocal[i] + rlocal[i],
                        preferred: Vec::new(),
                    });
                }
            }
        }

        // Account the cached reads: each consuming stage burns one
        // lineage reference, bumps recency, and — for spilled entries —
        // pays the reread through the spill files.
        for rdd in &cached_reads {
            *self.reads_done.entry(*rdd).or_insert(0) += 1;
            if self.governed() {
                let id = rdd.0 as u64;
                self.mem.touch(id);
                if self.mem.is_spilled(id) {
                    self.mem.reread(id);
                    let num_parts = self.materialized[rdd].parts.len();
                    for i in 0..num_parts {
                        self.store.read_file(&spill_name(*rdd, i));
                    }
                }
            }
        }

        let root_rdd = stage.root_rdd();
        let sink = self.options.trace.clone();
        let crate::exchange::StageData {
            outs,
            out_lens,
            out_bytes,
            bucket_bytes,
            extra_cost,
            root_bounds,
        } = recorded;

        // ---------------- Build task specs & simulate --------------------
        let root_scheme = match &stage.root {
            StageRoot::ShuffleRead { shuffle, .. } => Some(plan.shuffles[*shuffle].scheme),
            StageRoot::JoinRead { wide, .. } => plan.schemes.get(wide).copied(),
            _ => None,
        };
        let task_mem_budget = self.options.per_task_mem_budget();
        let split_active = split_plan.is_some();
        if let Some(sp) = &split_plan {
            if sink.is_enabled() {
                use trace::{pids, Clock, Track};
                let hot = sp.subs.iter().filter(|&&k| k > 1).count();
                sink.instant(
                    Clock::Virtual,
                    Track::new(pids::DRIVER, 0),
                    format!("j{job_id}.s{gid} adaptive split"),
                    "adaptive",
                    self.sim.clock(),
                    vec![
                        ("stage", gid.into()),
                        ("job", job_id.into()),
                        ("hot_partitions", hot.into()),
                        ("physical_tasks", num_tasks.into()),
                        ("virtual_tasks", sp.total_tasks().into()),
                    ],
                );
            }
        }
        let mut specs: Vec<TaskSpec> = Vec::with_capacity(num_tasks);
        // Split tasks expand into several virtual specs, but downstream
        // consumers address shuffle data per *physical* task: remember each
        // task's final spec, whose node finishes (and stores) its output.
        let mut last_spec_of_task: Vec<usize> = Vec::with_capacity(num_tasks);
        // As-if-unsplit specs, retained for lineage recovery under a fault
        // plan: recompute of a lost map output re-runs the whole physical
        // task, not one sub.
        let keep_unsplit = self.faults.is_some() && split_active;
        let mut unsplit_specs: Vec<TaskSpec> = Vec::new();
        for (i, prep) in preps.iter().enumerate() {
            let out = &outs[i];
            let mut write_bytes = bucket_bytes
                .as_ref()
                .map_or(0, |b| b[i].iter().sum::<u64>());
            let mut local_read_bytes = prep.local_read_bytes;
            // Map-side combine overflow: a shuffle buffer larger than the
            // task's execution-memory share spills the overflow to disk
            // and re-reads it during the merge.
            if let Some(budget) = task_mem_budget {
                let overflow = crate::shuffle::spill_overflow(write_bytes, budget);
                if overflow > 0 {
                    self.mem.note_shuffle_spill(overflow);
                    write_bytes += overflow;
                    local_read_bytes += overflow;
                }
            }
            let mut preferred = prep.preferred.clone();
            let mut pinned = None;
            // Split stages skip co-partition anchoring: their virtual task
            // indices no longer align 1:1 with partition indices, so an
            // anchor keyed on them would pin the wrong data together.
            if self.options.copartition_scheduling && !split_active {
                if let Some(s) = root_scheme {
                    if let Some(&anchor) = self.anchors.get(&(s.kind, s.partitions, i)) {
                        pinned = Some(anchor);
                    } else if let Some((node, _)) = prep.fetches.iter().max_by_key(|(_, b)| *b) {
                        // Locality-aware reduce placement: prefer the node
                        // holding the largest share of this task's input.
                        preferred.push(*node);
                    }
                }
            }
            let base_spec = TaskSpec {
                compute_cost: out.cost + extra_cost[i],
                local_read_bytes,
                fetches: prep.fetches.clone(),
                fetch_chunks: prep.fetch_chunks,
                write_bytes,
                memory_bytes: out.input_bytes + out_bytes[i],
                preferred_nodes: preferred,
                pinned_node: pinned,
            };
            if keep_unsplit {
                unsplit_specs.push(base_spec.clone());
            }
            match out.sub_stats.as_deref() {
                Some(stats) => {
                    debug_assert_eq!(
                        stats.iter().map(|s| s.fetched).sum::<u64>(),
                        out.input_records,
                        "sub-splits must partition the task's input"
                    );
                    let sub_cost_sum: f64 = stats.iter().map(|s| s.cost).sum();
                    for (s_idx, st) in stats.iter().enumerate() {
                        let last = s_idx + 1 == stats.len();
                        let sub_in: u64 = st.per_map_bytes.iter().sum();
                        specs.push(TaskSpec {
                            // The narrow chain (plus any bucketize/spill
                            // charge) runs once over the concatenated
                            // sub-outputs; charge it to the last sub, whose
                            // finish gates the physical task's output.
                            compute_cost: st.cost
                                + if last {
                                    (out.cost - sub_cost_sum) + extra_cost[i]
                                } else {
                                    0.0
                                },
                            local_read_bytes: if last { local_read_bytes } else { 0 },
                            fetches: aggregate_fetches(
                                producer_nodes.iter().zip(st.per_map_bytes.iter().copied()),
                            ),
                            fetch_chunks: st.per_map_bytes.iter().filter(|&&b| b > 0).count(),
                            write_bytes: if last { write_bytes } else { 0 },
                            memory_bytes: sub_in + st.out_bytes,
                            preferred_nodes: Vec::new(),
                            pinned_node: None,
                        });
                    }
                }
                None => specs.push(base_spec),
            }
            last_spec_of_task.push(specs.len() - 1);
        }
        // Fetch-table snapshot for metrics: fault injection below appends
        // re-fetch entries to spec fetch lists, but the metrics byte
        // tables must stay fault-invariant.
        let spec_fetches: Vec<Vec<(NodeId, u64)>> =
            specs.iter().map(|s| s.fetches.clone()).collect();
        let stage_faults = self.inject_task_faults(&mut specs, gid);
        let timing = self.sim.run_stage(&specs);
        let nodes: Vec<NodeId> = timing.tasks.iter().map(|t| t.node).collect();
        // Per physical task: the node that finished it (its last sub).
        let physical_nodes: Vec<NodeId> = last_spec_of_task.iter().map(|&j| nodes[j]).collect();
        if let Some((retried, failures, corrupt)) = stage_faults {
            self.emit_fault_event(
                &format!("j{job_id}.s{gid} retries"),
                "retry",
                vec![
                    ("stage", (gid as u64).into()),
                    ("retried_tasks", retried.into()),
                    ("injected_failures", failures.into()),
                    ("corrupt_chunks", corrupt.into()),
                ],
            );
        }

        // Anchor co-partitioned indices for subsequent same-scheme stages.
        // Split stages don't anchor: spec indices ≠ partition indices.
        if self.options.copartition_scheduling && !split_active {
            if let Some(s) = root_scheme {
                for (i, &n) in nodes.iter().enumerate() {
                    self.anchors.entry((s.kind, s.partitions, i)).or_insert(n);
                }
            }
        }

        // ---------------- Persist caches ---------------------------------
        // Governed mode: reserve this stage's execution working set first
        // (execution borrows from storage, possibly evicting cached data),
        // then admit the captures through the memory manager.
        if self.governed() {
            let mut reserve = vec![0u64; self.options.cluster.num_nodes()];
            for (spec, &n) in specs.iter().zip(&nodes) {
                reserve[n] = reserve[n].max(spec.memory_bytes);
            }
            self.refresh_refs();
            let evictions = self.mem.set_execution_reservation(&reserve);
            self.apply_evictions(&evictions);
        }

        let root_part = self.root_partitioning(plan, stage);
        let mut capture_map: HashMap<Rdd, Vec<Arc<Vec<Record>>>> = HashMap::new();
        for out in &outs {
            for (rdd, data) in &out.captures {
                capture_map.entry(*rdd).or_default().push(Arc::clone(data));
            }
        }
        // Deterministic insertion order: under memory governance the
        // insertion order decides who evicts whom, so hash-map order
        // would leak into results.
        let mut captures: Vec<(Rdd, Vec<Arc<Vec<Record>>>)> = capture_map.into_iter().collect();
        captures.sort_by_key(|(r, _)| r.0);
        for (rdd, parts) in captures {
            if parts.len() != num_tasks || self.materialized.contains_key(&rdd) {
                continue;
            }
            let partitioning = if rdd == root_rdd {
                root_part
            } else {
                self.partitioning_at(root_part, &stage.chain, rdd)
            };
            // A known partitioning is the root's, carried through
            // partition-preserving ops, and so are its bounds.
            let bounds = partitioning.and(root_bounds.clone());
            // The producing stage consumes the capture inline unless the
            // capture is the stage's final result — that consumption has
            // already burned one lineage reference.
            if !(rdd == stage.terminal && matches!(stage.output, StageOutput::Result)) {
                *self.reads_done.entry(rdd).or_insert(0) += 1;
            }
            let spilled = if self.governed() {
                self.admit_capture(rdd, &parts, &physical_nodes)
            } else {
                for (i, p) in parts.iter().enumerate() {
                    self.sim.add_resident(physical_nodes[i], batch_size(p));
                }
                false
            };
            self.materialized.insert(
                rdd,
                Materialized {
                    parts,
                    homes: physical_nodes.clone(),
                    partitioning,
                    bounds,
                    producer_stage: gid,
                    spilled,
                },
            );
        }

        // ---------------- Store shuffle output / result ------------------
        let mut result_records = None;
        let shuffle_write_bytes;
        match stage.output {
            StageOutput::ShuffleWrite(sidx) => {
                // The exchange consumed the buckets; only byte accounting
                // survives for downstream fetch simulation.
                let bytes = bucket_bytes.expect("shuffle-write stage records bucket bytes");
                shuffle_write_bytes = bytes.iter().flatten().sum();
                shuffles[sidx] = Some(ShuffleData {
                    bytes,
                    nodes: physical_nodes.clone(),
                    producer_gid: gid,
                    specs: if keep_unsplit {
                        unsplit_specs
                    } else if self.faults.is_some() {
                        specs.clone()
                    } else {
                        Vec::new()
                    },
                });
            }
            StageOutput::Result => {
                shuffle_write_bytes = 0;
                let mut all = Vec::new();
                for out in &outs {
                    all.extend_from_slice(out.records.as_slice());
                }
                result_records = Some(all);
            }
        }

        // ---------------- Metrics ----------------------------------------
        // Computed from the (pre-injection) spec fetch tables, not `preps`:
        // identical for unsplit stages (specs clone prep fetches verbatim),
        // and correctly per-sub for split stages.
        let shuffle_read_bytes: u64 = match &stage.root {
            StageRoot::ShuffleRead { .. } | StageRoot::JoinRead { .. } => spec_fetches
                .iter()
                .flat_map(|f| f.iter().map(|(_, b)| *b))
                .sum(),
            _ => 0,
        };
        let remote_read_bytes: u64 = spec_fetches
            .iter()
            .zip(&nodes)
            .flat_map(|(f, &n)| f.iter().filter(move |(src, _)| *src != n).map(|(_, b)| *b))
            .sum();
        let (kind, configurable) = match &stage.root {
            StageRoot::Source(rdd) => {
                let node = self.graph.node(*rdd);
                let dynamic = matches!(
                    node.op,
                    OpKind::SourceBlocks {
                        partitions: None,
                        ..
                    }
                );
                (StageKind::Source, dynamic)
            }
            StageRoot::ShuffleRead { wide, .. } => {
                (StageKind::Shuffle, !self.graph.node(*wide).user_fixed)
            }
            StageRoot::JoinRead { wide, .. } => {
                (StageKind::Join, !self.graph.node(*wide).user_fixed)
            }
            StageRoot::CachedRead(_) => (StageKind::Cached, false),
        };
        let root_node = self.graph.node(root_rdd);
        let terminal_node = self.graph.node(stage.terminal);
        parents_gids.sort_unstable();
        parents_gids.dedup();
        let metrics = StageMetrics {
            stage_id: gid,
            job_id,
            name: terminal_node.tag.to_string(),
            root_signature: root_node.signature,
            terminal_signature: terminal_node.signature,
            kind,
            scheme: root_scheme.or_else(|| {
                // Source stages report the scheme-equivalent of their split
                // count so the optimizer can reason about them uniformly.
                Some(PartitionerSpec::hash(num_tasks))
            }),
            configurable,
            user_fixed: root_node.user_fixed,
            // Virtual tasks actually simulated — exceeds the physical
            // partition count when an adaptive split fired.
            num_tasks: specs.len(),
            input_records: outs.iter().map(|o| o.input_records).sum(),
            input_bytes: outs.iter().map(|o| o.input_bytes).sum(),
            output_records: out_lens.iter().sum(),
            output_bytes: out_bytes.iter().sum(),
            shuffle_read_bytes,
            shuffle_write_bytes,
            remote_read_bytes,
            start: timing.start,
            end: timing.end,
            task_durations: timing.tasks.iter().map(|t| t.duration()).collect(),
            placements: timing.tasks.clone(),
            parents: parents_gids,
        };

        // ---------------- Trace emission ----------------------------------
        // Purely observational: everything below reads `timing` / `metrics`
        // after the simulation advanced, so traced and untraced runs produce
        // bit-identical stage timings. Virtual-clock events are emitted here
        // on the driver thread in stage order, which keeps the virtual trace
        // slice deterministic across host worker counts.
        if sink.is_enabled() {
            use trace::{pids, Clock, Track};
            let label = format!("j{job_id}.s{gid} {}", metrics.name);
            sink.span(
                Clock::Virtual,
                Track::new(pids::DRIVER, 0),
                label.clone(),
                "stage",
                timing.start,
                timing.end,
                vec![
                    ("stage", gid.into()),
                    ("job", job_id.into()),
                    ("tasks", metrics.num_tasks.into()),
                    ("kind", format!("{:?}", metrics.kind).into()),
                    ("skew", metrics.task_skew().into()),
                    ("shuffle_read_bytes", metrics.shuffle_read_bytes.into()),
                    ("shuffle_write_bytes", metrics.shuffle_write_bytes.into()),
                ],
            );
            let shuf = Track::new(pids::DRIVER, 1);
            if !sink.has_thread_name(shuf) {
                sink.name_thread(shuf, "shuffle bytes");
            }
            sink.counter(
                Clock::Virtual,
                shuf,
                "shuffle_read_bytes",
                "shuffle",
                timing.start,
                metrics.shuffle_read_bytes as f64,
            );
            sink.counter(
                Clock::Virtual,
                shuf,
                "remote_read_bytes",
                "shuffle",
                timing.start,
                metrics.remote_read_bytes as f64,
            );
            sink.counter(
                Clock::Virtual,
                shuf,
                "shuffle_write_bytes",
                "shuffle",
                timing.end,
                metrics.shuffle_write_bytes as f64,
            );
            simcluster::emit_stage_trace(
                &sink,
                &self.options.cluster,
                &timing,
                &format!("j{job_id}.s{gid}"),
                gid,
            );
        }
        (metrics, result_records)
    }

    // ------------------------------------------------------------------
    // Memory governance
    // ------------------------------------------------------------------

    /// Whether the storage layer is governed by a memory budget.
    fn governed(&self) -> bool {
        self.options.executor_mem.is_some()
    }

    /// Snapshot of the memory-manager counters (evictions, spills,
    /// rereads, recomputes). All zero when ungoverned.
    pub fn mem_counters(&self) -> MemCounters {
        self.mem.counters()
    }

    /// Remaining references of a cached RDD: graph children not yet
    /// served a read, plus one pin reference while the driver still holds
    /// the cache handle (cleared by [`Context::uncache`]). The pin keeps
    /// a lineage-idle cache from being dropped between jobs of a lazily
    /// built DAG — an iterative driver re-reads it with consumers that do
    /// not exist in the graph yet. Under pressure a pinned-but-idle entry
    /// still ranks first for eviction, but it spills instead of dropping.
    fn lineage_refs(&self, rdd: Rdd) -> usize {
        let pin = usize::from(self.graph.node(rdd).cached);
        self.graph
            .child_count(rdd)
            .saturating_sub(self.reads_done.get(&rdd).copied().unwrap_or(0))
            .max(pin)
    }

    /// Push current lineage ref-counts into the memory manager so LRC
    /// ranks victims on up-to-date information.
    fn refresh_refs(&mut self) {
        let mut ids: Vec<Rdd> = self.materialized.keys().copied().collect();
        ids.sort_by_key(|r| r.0);
        for rdd in ids {
            let refs = self.lineage_refs(rdd);
            self.mem.set_refs(rdd.0 as u64, refs);
        }
    }

    /// Mirror the memory manager's eviction decisions into the engine:
    /// release simulated residency, drop or spill the materialization,
    /// and charge the spill writes to the victims' home disks.
    fn apply_evictions(&mut self, evictions: &[memman::Eviction]) {
        if evictions.is_empty() {
            return;
        }
        let num_nodes = self.options.cluster.num_nodes();
        let mut spill_write = vec![0u64; num_nodes];
        for ev in evictions {
            let rdd = Rdd(ev.id as usize);
            for (n, &b) in ev.bytes.iter().enumerate() {
                self.sim.release_resident(n, b);
            }
            match ev.disposition {
                Disposition::Dropped => {
                    self.materialized.remove(&rdd);
                    self.evicted_once.insert(rdd);
                }
                Disposition::Spilled => {
                    let mat = self
                        .materialized
                        .get_mut(&rdd)
                        .expect("spilled victim is materialized");
                    mat.spilled = true;
                    for (w, b) in spill_write.iter_mut().zip(&ev.bytes) {
                        *w += b;
                    }
                    let homes = mat.homes.clone();
                    let sizes: Vec<u64> = mat.parts.iter().map(|p| batch_size(p)).collect();
                    for (i, bytes) in sizes.into_iter().enumerate() {
                        self.store
                            .create_file_on(&spill_name(rdd, i), bytes, homes[i]);
                    }
                }
            }
            self.emit_mem_event(ev);
        }
        self.sim.charge_disk_io(&spill_write, true);
    }

    /// Admit a freshly captured cache entry through the memory manager.
    /// Returns whether the entry went straight to spill.
    fn admit_capture(&mut self, rdd: Rdd, parts: &[Arc<Vec<Record>>], nodes: &[NodeId]) -> bool {
        let num_nodes = self.options.cluster.num_nodes();
        let mut per_node = vec![0u64; num_nodes];
        let sizes: Vec<u64> = parts.iter().map(|p| batch_size(p)).collect();
        for (i, &b) in sizes.iter().enumerate() {
            per_node[nodes[i]] += b;
        }
        if self.evicted_once.contains(&rdd) {
            self.mem.note_recompute();
        }
        let refs = self.lineage_refs(rdd);
        let outcome = self.mem.insert(rdd.0 as u64, per_node.clone(), refs);
        let evicted = outcome.evicted().to_vec();
        self.apply_evictions(&evicted);
        match outcome {
            InsertOutcome::Stored { .. } => {
                for (i, &b) in sizes.iter().enumerate() {
                    self.sim.add_resident(nodes[i], b);
                }
                false
            }
            InsertOutcome::Spilled { .. } => {
                for (i, &b) in sizes.iter().enumerate() {
                    self.store.create_file_on(&spill_name(rdd, i), b, nodes[i]);
                }
                self.sim.charge_disk_io(&per_node, true);
                true
            }
        }
    }

    /// Drop cached entries whose reference count reached zero — no
    /// remaining consumer in the graph built so far can read them and the
    /// driver no longer pins them (see [`Context::uncache`]).
    /// Governed mode only: ungoverned contexts keep the historical
    /// retain-forever behaviour (and its bit-identical figures).
    fn sweep_unreferenced(&mut self) {
        if !self.governed() {
            return;
        }
        self.refresh_refs();
        for (id, freed) in self.mem.release_unreferenced() {
            let rdd = Rdd(id as usize);
            if let Some(mat) = self.materialized.remove(&rdd) {
                for (n, &b) in freed.iter().enumerate() {
                    self.sim.release_resident(n, b);
                }
                if mat.spilled {
                    for i in 0..mat.parts.len() {
                        self.store.delete_file(&spill_name(rdd, i));
                    }
                }
            }
        }
    }

    /// Trace an eviction decision on the driver's memory lane.
    fn emit_mem_event(&self, ev: &memman::Eviction) {
        let sink = &self.options.trace;
        if !sink.is_enabled() {
            return;
        }
        use trace::{pids, Clock, Track};
        let track = Track::new(pids::DRIVER, 2);
        if !sink.has_thread_name(track) {
            sink.name_thread(track, "memory manager");
        }
        let (name, cat) = match ev.disposition {
            Disposition::Dropped => (format!("drop r{}", ev.id), "evict"),
            Disposition::Spilled => (format!("spill r{}", ev.id), "spill"),
        };
        let bytes: u64 = ev.bytes.iter().sum();
        sink.instant(
            Clock::Virtual,
            track,
            name,
            cat,
            self.sim.clock(),
            vec![("bytes", bytes.into()), ("refs", ev.refs.into())],
        );
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    /// Applies every fault-plan event whose virtual time has passed:
    /// slow-node multipliers and node losses. A lost node is blacklisted
    /// in the simulation — subsequent stages schedule around it — and its
    /// data is recovered via [`Context::recover_lost_node`].
    fn apply_due_faults(&mut self, shuffles: &mut [Option<ShuffleData>]) {
        let now = self.sim.clock();
        let (due_slow, due_lost) = {
            let Some(fs) = self.faults.as_mut() else {
                return;
            };
            let mut slow = Vec::new();
            while fs.next_straggler < fs.stragglers.len()
                && fs.stragglers[fs.next_straggler].at <= now
            {
                let s = fs.stragglers[fs.next_straggler];
                fs.next_straggler += 1;
                if !fs.lost[s.node] {
                    fs.counters.stragglers_applied += 1;
                    slow.push(s);
                }
            }
            let mut lost = Vec::new();
            while fs.next_loss < fs.losses.len() && fs.losses[fs.next_loss].at <= now {
                let l = fs.losses[fs.next_loss];
                fs.next_loss += 1;
                if !fs.lost[l.node] {
                    fs.lost[l.node] = true;
                    fs.counters.nodes_lost += 1;
                    lost.push(l.node);
                }
            }
            (slow, lost)
        };
        for s in due_slow {
            self.sim.set_slowdown(s.node, s.factor);
            self.emit_fault_event(
                &format!("slow node {}", s.node),
                "straggler",
                vec![("node", s.node.into()), ("factor", s.factor.into())],
            );
        }
        for node in due_lost {
            self.sim.fail_node(node);
            self.emit_fault_event(
                &format!("node {node} lost"),
                "node-loss",
                vec![("node", node.into())],
            );
            self.recover_lost_node(node, shuffles);
        }
    }

    /// Recovers the data that died with `node`, replicas first, recompute
    /// second: cached partitions re-home to surviving nodes at
    /// replica-read disk cost (their host-side `Arc`s never left driver
    /// memory, so results are untouched), while lost shuffle map outputs
    /// — which have no replicas — are recomputed through lineage by
    /// re-running their retained task specs on the surviving topology.
    /// Only placements and the virtual clock change.
    fn recover_lost_node(&mut self, node: NodeId, shuffles: &mut [Option<ShuffleData>]) {
        let down: Vec<bool> = self
            .faults
            .as_ref()
            .expect("fault state present during recovery")
            .lost
            .clone();
        let num_nodes = self.options.cluster.num_nodes();
        // Survivors ordered by node id: re-home targets round-robin over
        // this list so recovery is deterministic regardless of map
        // iteration order and balanced across the shrunk cluster.
        let survivors: Vec<NodeId> = (0..num_nodes).filter(|&n| !down[n]).collect();
        assert!(
            !survivors.is_empty(),
            "fault plan validated to keep a survivor"
        );

        // Cached partitions, in RDD-id order for determinism.
        let mut moves: Vec<(Rdd, usize, u64)> = Vec::new();
        let mut rdds: Vec<Rdd> = self.materialized.keys().copied().collect();
        rdds.sort_by_key(|r| r.0);
        for rdd in rdds {
            let mat = &self.materialized[&rdd];
            for i in 0..mat.homes.len() {
                if mat.homes[i] == node {
                    moves.push((rdd, i, batch_size(&mat.parts[i])));
                }
            }
        }
        if !moves.is_empty() {
            let mut replica_read = vec![0u64; num_nodes];
            let mut moved_bytes = 0u64;
            for (k, &(rdd, i, bytes)) in moves.iter().enumerate() {
                let new_home = survivors[k % survivors.len()];
                let spilled = {
                    let mat = self.materialized.get_mut(&rdd).expect("key just listed");
                    mat.homes[i] = new_home;
                    mat.spilled
                };
                if !spilled {
                    self.sim.release_resident(node, bytes);
                    self.sim.add_resident(new_home, bytes);
                }
                replica_read[new_home] += bytes;
                moved_bytes += bytes;
            }
            // Under a rack topology the surviving replica must also cross
            // the network to its new home; charge those transfers as
            // contended flows. Source selection is deterministic: the
            // survivor after the new home in id order holds the replica
            // (with a single survivor the copy is node-local and free).
            if !self.options.cluster.topology.is_flat() {
                let transfers: Vec<(NodeId, NodeId, u64)> = moves
                    .iter()
                    .enumerate()
                    .map(|(k, &(_, _, bytes))| {
                        let new_home = survivors[k % survivors.len()];
                        let src = survivors[(k + 1) % survivors.len()];
                        (src, new_home, bytes)
                    })
                    .collect();
                self.sim.charge_replica_transfers(&transfers);
            }
            self.sim.charge_disk_io(&replica_read, false);
            let fs = self.faults.as_mut().expect("fault state present");
            fs.counters.replica_rehomed_partitions += moves.len() as u64;
            fs.counters.replica_read_bytes += moved_bytes;
            self.emit_fault_event(
                &format!("re-home {} cached partitions", moves.len()),
                "rehome",
                vec![
                    ("node", node.into()),
                    ("partitions", moves.len().into()),
                    ("bytes", moved_bytes.into()),
                ],
            );
        }

        // Lost shuffle map outputs: recompute only the missing partitions.
        let mut total_recomputed = 0u64;
        for sdata in shuffles.iter_mut() {
            let Some(data) = sdata else { continue };
            if data.specs.is_empty() {
                continue;
            }
            let lost_idx: Vec<usize> = data
                .nodes
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n == node)
                .map(|(m, _)| m)
                .collect();
            if lost_idx.is_empty() {
                continue;
            }
            let respecs: Vec<TaskSpec> = lost_idx
                .iter()
                .map(|&m| {
                    let mut sp = data.specs[m].clone();
                    if sp.pinned_node == Some(node) {
                        sp.pinned_node = None;
                    }
                    sp
                })
                .collect();
            let timing = self.sim.run_stage(&respecs);
            for (j, &m) in lost_idx.iter().enumerate() {
                data.nodes[m] = timing.tasks[j].node;
            }
            total_recomputed += lost_idx.len() as u64;
            let producer = data.producer_gid;
            self.emit_fault_span(
                &format!("recompute s{producer}"),
                "recompute",
                timing.start,
                timing.end,
                vec![
                    ("stage", producer.into()),
                    ("map_tasks", lost_idx.len().into()),
                ],
            );
        }
        if total_recomputed > 0 {
            let fs = self.faults.as_mut().expect("fault state present");
            fs.counters.recomputed_map_tasks += total_recomputed;
        }
    }

    /// Applies per-task fault draws to the freshly built task specs:
    /// failed attempts re-charge the task's full compute cost plus an
    /// exponential backoff, and corrupt shuffle chunks are fetched twice.
    /// Only the *simulated* specs change — the host data plane and every
    /// metrics byte table are built from `preps`, which is what keeps
    /// faulted runs bit-identical in results to fault-free ones. Returns
    /// `(retried_tasks, injected_failures, corrupt_chunks)` for this
    /// stage when anything was injected.
    fn inject_task_faults(
        &mut self,
        specs: &mut [TaskSpec],
        gid: usize,
    ) -> Option<(u64, u64, u64)> {
        // Backoff is virtual wall-time, but compute cost is divided by
        // node speed at placement; convert at the fastest node's speed so
        // the charged wait is at least the configured backoff anywhere.
        let ref_speed = self
            .options
            .cluster
            .nodes
            .iter()
            .map(|n| n.speed)
            .fold(1.0f64, f64::max);
        let fs = self.faults.as_mut()?;
        let FaultState { plan, counters, .. } = fs;
        if plan.task_fail_prob <= 0.0 && plan.corrupt_prob <= 0.0 {
            return None;
        }
        let mut retried = 0u64;
        let mut failures_total = 0u64;
        let mut corrupt = 0u64;
        for (i, spec) in specs.iter_mut().enumerate() {
            let attempts = plan.attempts(gid as u64, i as u64);
            let failures = attempts - 1;
            if failures > 0 {
                let backoff = plan.backoff(failures);
                spec.compute_cost = spec.compute_cost * attempts as f64 + backoff * ref_speed;
                counters.injected_failures += failures as u64;
                counters.retried_tasks += 1;
                counters.backoff_s += backoff;
                if failures == plan.max_task_retries {
                    counters.exhausted_retries += 1;
                }
                retried += 1;
                failures_total += failures as u64;
            }
            if plan.corrupt_prob > 0.0 {
                // Draw per original fetch entry; a corrupt chunk is
                // detected on arrival and fetched again from its source.
                let original = spec.fetches.len();
                for ci in 0..original {
                    let (src, bytes) = spec.fetches[ci];
                    if bytes > 0 && plan.corrupt_chunk(gid as u64, i as u64, ci as u64) {
                        spec.fetches.push((src, bytes));
                        spec.fetch_chunks += 1;
                        counters.corrupt_chunks += 1;
                        counters.refetched_bytes += bytes;
                        corrupt += 1;
                    }
                }
            }
        }
        if retried + corrupt > 0 {
            Some((retried, failures_total, corrupt))
        } else {
            None
        }
    }

    /// Emits an instant on the fault-recovery trace lane.
    fn emit_fault_event(
        &self,
        name: &str,
        cat: &'static str,
        args: Vec<(&'static str, trace::ArgValue)>,
    ) {
        let sink = &self.options.trace;
        if !sink.is_enabled() {
            return;
        }
        use trace::{pids, Clock, Track};
        let track = Track::new(pids::DRIVER, 3);
        if !sink.has_thread_name(track) {
            sink.name_thread(track, "fault recovery");
        }
        sink.instant(
            Clock::Virtual,
            track,
            name.to_string(),
            cat,
            self.sim.clock(),
            args,
        );
    }

    /// Emits a span on the fault-recovery trace lane.
    fn emit_fault_span(
        &self,
        name: &str,
        cat: &'static str,
        start_s: f64,
        end_s: f64,
        args: Vec<(&'static str, trace::ArgValue)>,
    ) {
        let sink = &self.options.trace;
        if !sink.is_enabled() {
            return;
        }
        use trace::{pids, Clock, Track};
        let track = Track::new(pids::DRIVER, 3);
        if !sink.has_thread_name(track) {
            sink.name_thread(track, "fault recovery");
        }
        sink.span(
            Clock::Virtual,
            track,
            name.to_string(),
            cat,
            start_s,
            end_s,
            args,
        );
    }
}

/// Name of the spill file backing partition `part` of a cached RDD.
fn spill_name(rdd: Rdd, part: usize) -> String {
    format!("__spill/r{}.p{}", rdd.0, part)
}

/// Aggregates `(node, bytes)` pairs by node, dropping empty transfers.
fn aggregate_fetches<'a, I>(pairs: I) -> Vec<(NodeId, u64)>
where
    I: IntoIterator<Item = (&'a NodeId, u64)>,
{
    let mut per_node: HashMap<NodeId, u64> = HashMap::new();
    for (&node, bytes) in pairs {
        if bytes > 0 {
            *per_node.entry(node).or_insert(0) += bytes;
        }
    }
    let mut v: Vec<(NodeId, u64)> = per_node.into_iter().collect();
    v.sort_unstable();
    v
}

#[derive(Clone)]
pub(crate) enum MergeKind {
    Reduce(ReduceFn, f64),
    Group(f64),
    Concat,
}

/// A stage root whose input is fully available at job start: the roots
/// [`compute_task`] materializes. Shuffle and join roots are merged
/// incrementally from exchanges by the pipelined executor.
pub(crate) enum RootInput {
    Slice(Arc<Vec<Record>>, usize, usize),
    Gen(GenFn, usize, usize),
    Cached(Arc<Vec<Record>>),
}

/// One task's input accounting for the simulation.
#[derive(Default)]
struct TaskPrep {
    fetches: Vec<(NodeId, u64)>,
    fetch_chunks: usize,
    local_read_bytes: u64,
    preferred: Vec<NodeId>,
}

/// Per-task reservoir sampling for range-partitioned shuffle writes: each
/// map task samples its own output during the compute pass instead of a
/// serial driver-side scan over every task's records.
pub(crate) struct SampleSpec {
    /// Reservoir capacity per task.
    pub(crate) cap: usize,
    /// Stage-level seed; each task derives its own stream from it.
    pub(crate) seed: u64,
}

/// A task's output records: either owned by the task, or a window into a
/// shared source/cache partition that the narrow chain never needed to copy.
pub(crate) enum TaskRecords {
    Owned(Vec<Record>),
    Shared(Arc<Vec<Record>>, usize, usize),
}

impl TaskRecords {
    pub(crate) fn as_slice(&self) -> &[Record] {
        match self {
            TaskRecords::Owned(v) => v,
            TaskRecords::Shared(data, start, end) => &data[*start..*end],
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            TaskRecords::Owned(v) => v.len(),
            TaskRecords::Shared(_, start, end) => end - start,
        }
    }
}

/// An `Arc` snapshot of the records for cache persistence. Shared windows
/// covering a whole partition are captured without copying.
pub(crate) fn capture_arc(records: &TaskRecords) -> Arc<Vec<Record>> {
    match records {
        TaskRecords::Owned(v) => Arc::new(v.clone()),
        TaskRecords::Shared(data, start, end) => {
            if *start == 0 && *end == data.len() {
                Arc::clone(data)
            } else {
                Arc::new(data[*start..*end].to_vec())
            }
        }
    }
}

pub(crate) struct TaskOut {
    pub(crate) records: TaskRecords,
    pub(crate) cost: f64,
    pub(crate) input_records: u64,
    pub(crate) input_bytes: u64,
    pub(crate) captures: Vec<(Rdd, Arc<Vec<Record>>)>,
    /// Keys reservoir-sampled from the final records (range shuffles only).
    pub(crate) sample: Vec<Key>,
    /// Per-sub virtual-task statistics when this task ran as an adaptive
    /// split (`None` for unsplit tasks). The driver turns these into one
    /// `TaskSpec` per sub.
    pub(crate) sub_stats: Option<Vec<crate::adaptive::SubTaskStats>>,
}

/// One narrow op compiled for a fused streaming pass.
enum FusedOp<'g> {
    Map(&'g MapFn),
    FlatMap(&'g FlatMapFn),
    Filter(&'g FilterFn),
    Sample {
        fraction: f64,
        rng: numeric::XorShift64,
    },
}

/// A fused op plus its observed input count, so per-op compute cost can be
/// charged after the pass exactly as the op-at-a-time loop did.
struct OpState<'g> {
    op: FusedOp<'g>,
    inputs: u64,
}

/// Streams one owned record through the remaining fused ops.
///
/// Records arrive at each op in the same order as the op-at-a-time loop
/// (every narrow op is order-preserving), so per-op `Sample` RNG draws are
/// bit-identical to the unfused execution.
fn feed_owned(ops: &mut [OpState<'_>], rec: Record, out: &mut Vec<Record>) {
    let Some((head, rest)) = ops.split_first_mut() else {
        out.push(rec);
        return;
    };
    head.inputs += 1;
    match &mut head.op {
        FusedOp::Map(f) => feed_owned(rest, f(&rec), out),
        FusedOp::FlatMap(f) => {
            for r in f(&rec) {
                feed_owned(rest, r, out);
            }
        }
        FusedOp::Filter(f) => {
            if f(&rec) {
                feed_owned(rest, rec, out);
            }
        }
        FusedOp::Sample { fraction, rng } => {
            if rng.next_f64() < *fraction {
                feed_owned(rest, rec, out);
            }
        }
    }
}

/// Streams one borrowed record through the fused ops, cloning only when it
/// survives to the output (or a `Map`/`FlatMap` takes over ownership).
fn feed_ref(ops: &mut [OpState<'_>], rec: &Record, out: &mut Vec<Record>) {
    let Some((head, rest)) = ops.split_first_mut() else {
        out.push(rec.clone());
        return;
    };
    head.inputs += 1;
    match &mut head.op {
        FusedOp::Map(f) => feed_owned(rest, f(rec), out),
        FusedOp::FlatMap(f) => {
            for r in f(rec) {
                feed_owned(rest, r, out);
            }
        }
        FusedOp::Filter(f) => {
            if f(rec) {
                feed_ref(rest, rec, out);
            }
        }
        FusedOp::Sample { fraction, rng } => {
            if rng.next_f64() < *fraction {
                feed_ref(rest, rec, out);
            }
        }
    }
}

/// Materializes a source or cached root, applies the narrow chain, and
/// accounts cost.
///
/// The chain runs as fused streaming passes: one pass per segment, where a
/// segment ends at (and includes) the next cached node, whose full output
/// must be materialized for capture. Slice/Cached roots are borrowed, not
/// copied — an empty chain passes the shared window straight through.
pub(crate) fn compute_task(
    graph: &RddGraph,
    input: &RootInput,
    chain: &[Rdd],
    task_index: usize,
    capture_root: bool,
    root_rdd: Rdd,
    range_sample: Option<&SampleSpec>,
) -> TaskOut {
    let mut cost = 0.0;
    let (records, input_records, input_bytes) = match input {
        RootInput::Slice(data, start, end) => {
            let slice = &data[*start..*end];
            let b = batch_size(slice);
            let n = slice.len() as u64;
            (TaskRecords::Shared(Arc::clone(data), *start, *end), n, b)
        }
        RootInput::Gen(gen, i, n) => {
            let node = graph.node(root_rdd);
            let records = gen(*i, *n);
            let b = batch_size(&records);
            let count = records.len() as u64;
            cost += count as f64 * node.cost_per_record;
            (TaskRecords::Owned(records), count, b)
        }
        RootInput::Cached(data) => {
            let b = batch_size(data);
            let n = data.len() as u64;
            (TaskRecords::Shared(Arc::clone(data), 0, data.len()), n, b)
        }
    };

    let mut captures = Vec::new();
    if capture_root {
        captures.push((root_rdd, capture_arc(&records)));
    }

    run_chain_and_finish(
        graph,
        chain,
        task_index,
        records,
        cost,
        input_records,
        input_bytes,
        captures,
        range_sample,
    )
}

/// Runs the fused narrow chain over `records` and finishes the task:
/// per-op cost accounting, cache captures, and range-shuffle sampling.
/// Shared by [`compute_task`] and the pipelined executor's merge roots,
/// which are materialized incrementally from exchanges.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chain_and_finish(
    graph: &RddGraph,
    chain: &[Rdd],
    task_index: usize,
    mut records: TaskRecords,
    mut cost: f64,
    input_records: u64,
    input_bytes: u64,
    mut captures: Vec<(Rdd, Arc<Vec<Record>>)>,
    range_sample: Option<&SampleSpec>,
) -> TaskOut {
    let mut counts: Vec<u64> = vec![0; chain.len()];
    let mut pos = 0;
    while pos < chain.len() {
        let seg_end = chain[pos..]
            .iter()
            .position(|&r| graph.node(r).cached)
            .map(|off| pos + off + 1)
            .unwrap_or(chain.len());
        let mut ops: Vec<OpState<'_>> = chain[pos..seg_end]
            .iter()
            .map(|&r| OpState {
                op: match &graph.node(r).op {
                    OpKind::Map { f } | OpKind::MapValues { f } => FusedOp::Map(f),
                    OpKind::FlatMap { f } => FusedOp::FlatMap(f),
                    OpKind::Filter { f } => FusedOp::Filter(f),
                    OpKind::Sample { fraction, seed } => FusedOp::Sample {
                        fraction: *fraction,
                        rng: numeric::XorShift64::new(seed ^ ((task_index as u64 + 1) * 0x9E37)),
                    },
                    other => unreachable!("wide op {other:?} inside a narrow chain"),
                },
                inputs: 0,
            })
            .collect();
        let mut out = Vec::new();
        match std::mem::replace(&mut records, TaskRecords::Owned(Vec::new())) {
            TaskRecords::Owned(v) => {
                for rec in v {
                    feed_owned(&mut ops, rec, &mut out);
                }
            }
            TaskRecords::Shared(data, start, end) => {
                for rec in &data[start..end] {
                    feed_ref(&mut ops, rec, &mut out);
                }
            }
        }
        for (off, st) in ops.iter().enumerate() {
            counts[pos + off] = st.inputs;
        }
        if graph.node(chain[seg_end - 1]).cached {
            captures.push((chain[seg_end - 1], Arc::new(out.clone())));
        }
        records = TaskRecords::Owned(out);
        pos = seg_end;
    }

    // Charge per-op compute cost in chain order, after the root costs —
    // the same f64 accumulation sequence as the op-at-a-time loop, so
    // simulated stage timings are bit-identical.
    for (i, &r) in chain.iter().enumerate() {
        cost += counts[i] as f64 * graph.node(r).cost_per_record;
    }

    let sample = match range_sample {
        Some(spec) => {
            let task_seed = spec.seed ^ ((task_index as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            let mut res = Reservoir::new(spec.cap, task_seed);
            for r in records.as_slice() {
                res.offer(r.key.clone());
            }
            res.into_items()
        }
        None => Vec::new(),
    };

    TaskOut {
        records,
        cost,
        input_records,
        input_bytes,
        captures,
        sample,
        sub_stats: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Key, Value};
    use simcluster::uniform_cluster;

    fn test_options() -> EngineOptions {
        EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            default_parallelism: 6,
            workers: 2,
            ..EngineOptions::default()
        }
    }

    fn sum() -> ReduceFn {
        Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
    }

    fn sorted(mut records: Vec<Record>) -> Vec<Record> {
        records.sort_by(|a, b| {
            a.key
                .cmp(&b.key)
                .then_with(|| format!("{:?}", a.value).cmp(&format!("{:?}", b.value)))
        });
        records
    }

    fn word_records() -> Vec<Record> {
        (0..200)
            .map(|i| Record::new(Key::Int(i % 10), Value::Int(1)))
            .collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        let out = ctx.collect(counts, "wordcount");
        assert_eq!(out.len(), 10);
        for r in &out {
            assert_eq!(r.value.as_int(), 20, "each key appears 20 times");
        }
    }

    #[test]
    fn metrics_record_two_stages_with_shuffle() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        ctx.collect(counts, "wordcount");
        let jobs = ctx.jobs();
        assert_eq!(jobs.len(), 1);
        let stages = &jobs[0].stages;
        assert_eq!(stages.len(), 2);
        assert!(
            stages[0].shuffle_write_bytes > 0,
            "map stage writes shuffle"
        );
        assert_eq!(stages[0].shuffle_read_bytes, 0);
        assert!(
            stages[1].shuffle_read_bytes > 0,
            "reduce stage reads shuffle"
        );
        assert_eq!(stages[1].num_tasks, 6, "default parallelism");
        assert_eq!(stages[1].parents, vec![stages[0].stage_id]);
        assert!(jobs[0].duration() > 0.0);
    }

    #[test]
    fn determinism_across_identical_contexts() {
        let run = || {
            let mut ctx = Context::new(test_options());
            let src = ctx.parallelize(word_records(), 4, "src");
            let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
            let out = ctx.collect(counts, "wc");
            let s = &ctx.jobs()[0].stages[0];
            (sorted(out), s.shuffle_write_bytes, ctx.clock().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_override_changes_task_count() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        let sig = ctx.signature(counts);
        let mut conf = WorkloadConf::new();
        conf.set_stage(sig, PartitionerSpec::hash(3));
        ctx.set_conf(conf);
        ctx.collect(counts, "wc");
        assert_eq!(ctx.jobs()[0].stages[1].num_tasks, 3);
    }

    #[test]
    fn range_partitioner_yields_same_results_as_hash() {
        let run = |spec: PartitionerSpec| {
            let mut ctx = Context::new(test_options());
            let src = ctx.parallelize(word_records(), 4, "src");
            let counts = ctx.reduce_by_key(src, sum(), Some(spec), 1e-6, "count");
            sorted(ctx.collect(counts, "wc"))
        };
        assert_eq!(
            run(PartitionerSpec::hash(5)),
            run(PartitionerSpec::range(5))
        );
    }

    #[test]
    fn caching_skips_recompute_in_later_jobs() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let mapped = ctx.map(src, Arc::new(|r: &Record| r.clone()), 5e-3, "prep");
        ctx.cache(mapped);
        // Job 1 materializes; job 2 reads the cache.
        let c1 = ctx.count(mapped, "materialize");
        let c2 = ctx.count(mapped, "reuse");
        assert_eq!(c1, c2);
        let jobs = ctx.jobs();
        assert_eq!(jobs[0].stages[0].kind, StageKind::Source);
        assert_eq!(jobs[1].stages[0].kind, StageKind::Cached);
        assert!(
            jobs[1].duration() < jobs[0].duration() / 2.0,
            "cached job should skip the expensive map: {} vs {}",
            jobs[1].duration(),
            jobs[0].duration()
        );
        assert_eq!(
            jobs[1].stages.len(),
            1,
            "cache read is a single trivial stage"
        );
    }

    #[test]
    fn join_end_to_end_correctness() {
        let mut ctx = Context::new(test_options());
        let left: Vec<Record> = (0..10)
            .map(|i| Record::new(Key::Int(i), Value::Int(i * 10)))
            .collect();
        let right: Vec<Record> = (5..15)
            .map(|i| Record::new(Key::Int(i), Value::Int(i * 100)))
            .collect();
        let l = ctx.parallelize(left, 2, "l");
        let r = ctx.parallelize(right, 2, "r");
        let j = ctx.join(l, r, None, 1e-6, "j");
        let out = ctx.collect(j, "join");
        assert_eq!(out.len(), 5, "keys 5..10 match");
        for rec in &out {
            match (&rec.key, &rec.value) {
                (Key::Int(k), Value::Pair(a, b)) => {
                    assert_eq!(a.as_int(), k * 10);
                    assert_eq!(b.as_int(), k * 100);
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
        // Join job = two map stages + join stage.
        assert_eq!(ctx.jobs()[0].stages.len(), 3);
        assert_eq!(ctx.jobs()[0].stages[2].kind, StageKind::Join);
    }

    /// Left keys 0..2000 and right keys in 1000..1100 ∪ 1500..1600: each
    /// side's sample alone yields different range bounds.
    fn range_join_sides() -> (Vec<Record>, Vec<Record>) {
        let rec = |i: i64| Record::new(Key::Int(i), Value::Int(i));
        let left = (0..2000).map(rec).collect();
        let right = (1000..1100).chain(1500..1600).map(rec).collect();
        (left, right)
    }

    #[test]
    fn range_join_cuts_both_sides_with_one_partitioner() {
        let mut ctx = Context::new(EngineOptions {
            adaptive: false,
            ..test_options()
        });
        let (left, right) = range_join_sides();
        let l = ctx.parallelize(left, 4, "l");
        let r = ctx.parallelize(right, 4, "r");
        let scheme = Some(PartitionerSpec::range(8));
        let j = ctx.join(l, r, scheme, 1e-6, "j");
        assert_eq!(ctx.collect(j, "join").len(), 200, "every right key matches");
        let cg = ctx.co_group(l, r, scheme, 1e-6, "cg");
        assert_eq!(ctx.collect(cg, "cogroup").len(), 2000, "one group per key");
    }

    #[test]
    fn range_join_reshuffles_a_cached_side_cut_by_other_bounds() {
        let mut ctx = Context::new(EngineOptions {
            adaptive: false,
            ..test_options()
        });
        let (left, right) = range_join_sides();
        let scheme = Some(PartitionerSpec::range(8));
        let l = ctx.parallelize(left, 4, "l");
        let r = ctx.parallelize(right, 4, "r");
        let rl = ctx.reduce_by_key(l, sum(), scheme, 1e-6, "rl");
        let rr = ctx.reduce_by_key(r, sum(), scheme, 1e-6, "rr");
        ctx.cache(rl);
        ctx.cache(rr);
        ctx.count(rl, "mat-l");
        ctx.count(rr, "mat-r");
        // One cached side: the shuffled side adopts its bounds.
        let j = ctx.join(rl, r, scheme, 1e-6, "j");
        assert_eq!(ctx.collect(j, "join").len(), 200);
        let j = ctx.join(l, rr, scheme, 1e-6, "j");
        assert_eq!(ctx.collect(j, "join").len(), 200);
        // Both cached under the same scheme but different bounds: the
        // right side is re-cut by the left's bounds.
        let j = ctx.join(rl, rr, scheme, 1e-6, "j");
        assert_eq!(ctx.collect(j, "join").len(), 200);
        let cg = ctx.co_group(rl, rr, scheme, 1e-6, "cg");
        assert_eq!(ctx.collect(cg, "cogroup").len(), 2000);
        // A side joined with itself reads its one materialization twice.
        let j = ctx.join(rl, rl, scheme, 1e-6, "j");
        assert_eq!(ctx.collect(j, "join").len(), 2000);
    }

    #[test]
    fn text_file_source_uses_spark_split_rule() {
        let mut ctx = Context::new(test_options());
        // 3 blocks of 128 MB but default parallelism 6 → 6 splits.
        let gen: GenFn = Arc::new(|i, _n| vec![Record::new(Key::Int(i as i64), Value::Int(1))]);
        let f = ctx.text_file("in", 3 * 128 * 1024 * 1024, gen, 1e-6, "scan");
        ctx.count(f, "scan");
        assert_eq!(ctx.jobs()[0].stages[0].num_tasks, 6);
        // Reads hit the block store.
        assert!(ctx.store().counters().reads >= 3);
    }

    #[test]
    fn text_file_config_overrides_split_count() {
        let mut ctx = Context::new(test_options());
        let gen: GenFn = Arc::new(|i, _n| vec![Record::new(Key::Int(i as i64), Value::Int(1))]);
        let f = ctx.text_file("in", 256 * 1024 * 1024, gen, 1e-6, "scan");
        let mut conf = WorkloadConf::new();
        conf.set_stage(ctx.signature(f), PartitionerSpec::hash(9));
        ctx.set_conf(conf);
        ctx.count(f, "scan");
        assert_eq!(ctx.jobs()[0].stages[0].num_tasks, 9);
    }

    #[test]
    fn inserted_repartition_hook_applies_from_conf() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let sig = ctx.signature(src);
        let mut conf = WorkloadConf::new();
        conf.set_repartition(sig, PartitionerSpec::hash(2));
        ctx.set_conf(conf);
        let maybe = ctx.maybe_insert_repartition(src);
        assert_ne!(maybe, src, "repartition inserted");
        ctx.count(maybe, "repart");
        let stages = &ctx.jobs()[0].stages;
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[1].num_tasks, 2);

        // Without a matching entry the hook is the identity.
        let mut ctx2 = Context::new(test_options());
        let src2 = ctx2.parallelize(word_records(), 4, "src");
        assert_eq!(ctx2.maybe_insert_repartition(src2), src2);
    }

    #[test]
    fn copartition_scheduling_reduces_remote_join_traffic() {
        let build = |copart: bool| {
            let mut opts = test_options();
            opts.copartition_scheduling = copart;
            let mut ctx = Context::new(opts);
            // Side A is uniform; side B is skewed (key k appears 1+(k%13)
            // times with fat string payloads), so the two materialization
            // stages schedule their waves differently and partition homes
            // diverge unless co-partition anchoring aligns them.
            let data_a: Vec<Record> = (0..4000)
                .map(|i| Record::new(Key::Int(i % 100), Value::Int(i)))
                .collect();
            let mut data_b: Vec<Record> = Vec::new();
            for _rep in 0..10 {
                for k in 0..100i64 {
                    for j in 0..1 + (k % 13) {
                        data_b.push(Record::new(
                            Key::Int(k),
                            Value::str(&"x".repeat(64 + (j as usize) * 16)),
                        ));
                    }
                }
            }
            let a = ctx.parallelize(data_a, 4, "a");
            let b = ctx.parallelize(data_b, 4, "b");
            // 30 partitions on 12 cores → multi-wave scheduling.
            let scheme = Some(PartitionerSpec::hash(30));
            let ra = ctx.reduce_by_key(a, sum(), scheme, 1e-6, "ra");
            // group_by_key has no map-side combine, so side B's reduce
            // tasks do real per-record work whose duration varies with the
            // skewed key multiplicities — that is what desynchronizes its
            // placement from side A's without anchoring.
            let rb = ctx.group_by_key(b, scheme, 4e-3, "rb");
            ctx.cache(ra);
            ctx.cache(rb);
            ctx.count(ra, "mat-a");
            ctx.count(rb, "mat-b");
            let j = ctx.join(ra, rb, scheme, 1e-6, "join");
            ctx.count(j, "join");
            let join_job = ctx.jobs().last().unwrap().clone();
            let join_stage = join_job.stages.last().unwrap().clone();
            assert_eq!(join_stage.kind, StageKind::Join);
            join_stage.remote_read_bytes
        };
        let with = build(true);
        let without = build(false);
        assert!(
            with < without,
            "co-partitioning must cut remote bytes: with={with} without={without}"
        );
        assert_eq!(with, 0, "anchored partitions are fully local");
    }

    #[test]
    fn co_group_end_to_end_correctness() {
        let mut ctx = Context::new(test_options());
        let left: Vec<Record> = (0..6)
            .map(|i| Record::new(Key::Int(i % 3), Value::Int(i)))
            .collect();
        let right: Vec<Record> = (0..4)
            .map(|i| Record::new(Key::Int(i % 4), Value::Int(i * 100)))
            .collect();
        let l = ctx.parallelize(left, 2, "l");
        let r = ctx.parallelize(right, 2, "r");
        let cg = ctx.co_group(l, r, None, 1e-6, "cg");
        let out = ctx.collect(cg, "cogroup");
        // Keys 0,1,2 on the left; 0,1,2,3 on the right -> 4 groups.
        assert_eq!(out.len(), 4);
        for rec in &out {
            let (lhs, rhs) = match &rec.value {
                Value::Pair(a, b) => (a, b),
                other => panic!("expected pair of lists, got {other:?}"),
            };
            let (l_len, r_len) = match (&**lhs, &**rhs) {
                (Value::List(a), Value::List(b)) => (a.len(), b.len()),
                other => panic!("expected lists, got {other:?}"),
            };
            match rec.key {
                Key::Int(k) if k < 3 => {
                    assert_eq!(l_len, 2, "each left key appears twice");
                    assert_eq!(r_len, 1);
                }
                Key::Int(3) => {
                    assert_eq!(l_len, 0, "key 3 only exists on the right");
                    assert_eq!(r_len, 1);
                }
                ref other => panic!("unexpected key {other:?}"),
            }
        }
    }

    #[test]
    fn range_partitioner_alleviates_hot_key_neighbourhood_skew() {
        // The paper's claim: the right partitioner "implicitly alleviates
        // task skew". Keys concentrated in a narrow range crush a few hash
        // buckets' worth of reduce tasks when P >> distinct keys; sampled
        // range bounds spread the dense region across partitions.
        let run = |spec: PartitionerSpec| {
            let mut ctx = Context::new(test_options());
            // 90% of records in keys 0..20, the rest spread to 10_000.
            let data: Vec<Record> = (0..20_000)
                .map(|i| {
                    let k = if i % 10 < 9 { i % 20 } else { i % 10_000 };
                    Record::new(Key::Int(k), Value::Int(1))
                })
                .collect();
            let src = ctx.parallelize(data, 4, "src");
            let g = ctx.group_by_key(src, Some(spec), 5e-5, "group");
            ctx.count(g, "group");
            ctx.jobs()
                .last()
                .unwrap()
                .stages
                .last()
                .unwrap()
                .task_skew()
        };
        let hash_skew = run(PartitionerSpec::hash(12));
        let range_skew = run(PartitionerSpec::range(12));
        assert!(
            range_skew < hash_skew,
            "range bounds should spread the dense key region: range {range_skew:.2} vs hash {hash_skew:.2}"
        );
    }

    #[test]
    fn placements_align_with_durations() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        ctx.count(src, "job");
        let stage = ctx.jobs()[0].stages[0].clone();
        assert_eq!(stage.placements.len(), stage.task_durations.len());
        for (p, d) in stage.placements.iter().zip(&stage.task_durations) {
            assert!((p.duration() - d).abs() < 1e-12);
            assert!(p.node < ctx.options().cluster.num_nodes());
        }
    }

    #[test]
    fn sample_op_is_deterministic_and_proportional() {
        let run = || {
            let mut ctx = Context::new(test_options());
            let src = ctx.parallelize(word_records(), 4, "src");
            let s = ctx.sample(src, 0.5, 42, "sample");
            ctx.count(s, "sample")
        };
        let a = run();
        assert_eq!(a, run(), "sampling must be deterministic");
        assert!(a > 50 && a < 150, "~50% of 200 records, got {a}");
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let g = ctx.group_by_key(src, None, 1e-6, "group");
        let out = ctx.collect(g, "group");
        assert_eq!(out.len(), 10);
        for r in &out {
            match &r.value {
                Value::List(vs) => assert_eq!(vs.len(), 20),
                other => panic!("expected list, got {other:?}"),
            }
        }
    }

    #[test]
    fn flat_map_and_filter_compose() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let fm = ctx.flat_map(
            src,
            Arc::new(|r: &Record| vec![r.clone(), r.clone()]),
            1e-6,
            "dup",
        );
        let f = ctx.filter(
            fm,
            Arc::new(|r: &Record| matches!(r.key, Key::Int(k) if k < 5)),
            1e-6,
            "keep-low",
        );
        assert_eq!(
            ctx.count(f, "q"),
            200,
            "200*2 records, half pass the filter"
        );
    }

    #[test]
    fn virtual_clock_monotone_across_jobs() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        ctx.count(src, "j1");
        let t1 = ctx.clock();
        ctx.count(src, "j2");
        assert!(ctx.clock() > t1);
    }

    /// A plan whose only fault is `node` running `factor`× slower from the
    /// start.
    fn slow_node(node: usize, factor: f64) -> FaultPlan {
        FaultPlan {
            stragglers: vec![Straggler {
                node,
                factor,
                at: 0.0,
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn speculation_option_mitigates_a_degraded_node() {
        let run = |speculation: Option<f64>| {
            let mut ctx = Context::new(EngineOptions {
                faults: Some(FaultPlan {
                    speculation,
                    ..slow_node(0, 10.0)
                }),
                ..test_options()
            });
            let data: Vec<Record> = (0..20_000)
                .map(|i| Record::new(Key::Int(i % 10), Value::Int(1)))
                .collect();
            let src = ctx.parallelize(data, 12, "src");
            let m = ctx.map(src, Arc::new(|r: &Record| r.clone()), 2e-3, "work");
            ctx.count(m, "job");
            ctx.jobs().last().unwrap().duration()
        };
        let plain = run(None);
        let speculated = run(Some(1.5));
        assert!(
            speculated < plain,
            "backups on healthy nodes must beat waiting: {speculated} vs {plain}"
        );
    }

    #[test]
    fn derived_operators_compute_correctly() {
        use crate::record::Key as K;
        let mut ctx = Context::new(test_options());
        // 200 records over 10 keys with float values 0.5.
        let data: Vec<Record> = (0..200)
            .map(|i| Record::new(K::Int(i % 10), Value::Float(0.5)))
            .collect();
        let src = ctx.parallelize(data, 4, "src");

        let distinct = ctx.distinct_by_key(src, None, "distinct");
        assert_eq!(ctx.count(distinct, "distinct"), 10);

        let counts = ctx.count_by_key(src, None, "cbk");
        let out = ctx.collect(counts, "cbk");
        assert!(out.iter().all(|r| r.value.as_int() == 20));

        let means = ctx.mean_by_key(src, None, "mbk");
        let out = ctx.collect(means, "mbk");
        assert_eq!(out.len(), 10);
        for r in &out {
            assert!((r.value.as_float() - 0.5).abs() < 1e-12);
        }

        let rekeyed = ctx.key_by(
            src,
            Arc::new(|r: &Record| match r.key {
                K::Int(k) => K::Int(k % 2),
                _ => unreachable!(),
            }),
            1e-7,
            "rekey",
        );
        let halves = ctx.distinct_by_key(rekeyed, None, "halves");
        assert_eq!(ctx.count(halves, "halves"), 2);
    }

    #[test]
    fn failed_node_is_avoided_and_results_stay_correct() {
        // Enough work per task that cluster capacity (not dispatch) binds:
        // 24 tasks of ~0.8 s on 12 cores (2 waves) vs 8 cores (3 waves).
        let run = |faults: Option<FaultPlan>| {
            let mut ctx = Context::new(EngineOptions {
                faults,
                ..test_options()
            });
            let data: Vec<Record> = (0..20_000)
                .map(|i| Record::new(Key::Int(i % 10), Value::Int(1)))
                .collect();
            let src = ctx.parallelize(data, 24, "src");
            let m = ctx.map(src, Arc::new(|r: &Record| r.clone()), 2e-3, "work");
            let counts = ctx.reduce_by_key(m, sum(), None, 1e-6, "count");
            let out = sorted(ctx.collect(counts, "count"));
            (out, ctx.jobs().last().unwrap().duration())
        };
        let (healthy, t_healthy) = run(None);
        let (degraded, t_degraded) = run(Some(FaultPlan {
            node_loss: vec![NodeLoss { node: 0, at: 0.0 }],
            ..FaultPlan::default()
        }));
        assert_eq!(healthy, degraded, "results unaffected by the failure");
        assert!(
            t_degraded > t_healthy * 1.2,
            "losing a third of the cluster must slow the job: {t_degraded} !> {t_healthy}"
        );
    }

    #[test]
    fn slowdown_injection_stretches_stage_times() {
        let run = |faults: Option<FaultPlan>| {
            let mut ctx = Context::new(EngineOptions {
                faults,
                ..test_options()
            });
            let src = ctx.parallelize(word_records(), 4, "src");
            let m = ctx.map(src, Arc::new(|r: &Record| r.clone()), 5e-3, "work");
            ctx.count(m, "work");
            ctx.jobs().last().unwrap().duration()
        };
        let baseline = run(None);
        let degraded = run(Some(slow_node(1, 8.0)));
        assert!(
            degraded > baseline,
            "a straggler node must show up in the makespan"
        );
    }

    #[test]
    fn dynamic_conf_update_applies_to_next_job() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        let counts = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        ctx.count(counts, "before");
        let sig = ctx.signature(counts);
        ctx.set_conf_text(&format!("stage {sig:016x} hash 2\n"))
            .unwrap();
        // Rebuild the iteration (structurally identical → same signature).
        let counts2 = ctx.reduce_by_key(src, sum(), None, 1e-6, "count");
        ctx.count(counts2, "after");
        let jobs = ctx.jobs();
        assert_eq!(jobs[0].stages[1].num_tasks, 6);
        assert_eq!(jobs[1].stages[1].num_tasks, 2);
    }

    #[test]
    fn pinned_cache_survives_unrelated_jobs_under_governance() {
        let mut opts = test_options();
        opts.executor_mem = Some(1 << 20);
        let mut ctx = Context::new(opts);
        let src = ctx.parallelize(word_records(), 4, "src");
        let doubled = ctx.map(
            src,
            Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 2))),
            1e-7,
            "doubled",
        );
        ctx.cache(doubled);
        ctx.count(doubled, "materialize");
        // Jobs that never read `doubled`: its lineage ref-count is zero
        // throughout, but the driver's pin must keep it materialized.
        let other = ctx.parallelize(word_records(), 4, "other");
        ctx.count(other, "unrelated");
        assert_eq!(ctx.mem_counters().released, 0, "pin must block the sweep");
        let counts = ctx.reduce_by_key(doubled, sum(), None, 1e-6, "count");
        let out = ctx.collect(counts, "reuse");
        assert_eq!(out.len(), 10);
        assert_eq!(ctx.mem_counters().recomputes, 0, "cache hit, not rebuild");
    }

    #[test]
    fn pin_floor_spills_a_cache_read_twice_in_one_governed_job() {
        // One governed job reads the cached `base` from two map stages,
        // both through its only child, so the first read uses up its
        // lineage references. That stage's working set then evicts `base`
        // before the second stage reads it. The pipelined data plane read
        // both stages' inputs before the driver replays the eviction, so
        // the pin floor must make it a spill: a drop would leave the
        // second read without a materialization to account against.
        let run = |workers: usize| {
            let mut opts = test_options();
            opts.workers = workers;
            opts.executor_mem = Some(96 << 10);
            let mut ctx = Context::new(opts);
            let data: Vec<Record> = (0..4000)
                .map(|i| Record::new(Key::Int(i % 500), Value::Int(i)))
                .collect();
            let src = ctx.parallelize(data, 4, "src");
            let base = ctx.map(src, Arc::new(|r: &Record| r.clone()), 1e-7, "base");
            ctx.cache(base);
            ctx.count(base, "materialize");
            let padding: Arc<str> = Arc::from("x".repeat(64));
            let wide = ctx.map(
                base,
                Arc::new(move |r: &Record| Record::new(r.key.clone(), Value::Str(padding.clone()))),
                1e-7,
                "wide",
            );
            let first = ctx.distinct_by_key(wide, None, "first");
            let counts = ctx.count_by_key(wide, None, "counts");
            let joined = ctx.join(first, counts, None, 1e-6, "join");
            let before = ctx.mem_counters();
            let out = sorted(ctx.collect(joined, "two-reads"));
            (out, before, ctx, base)
        };
        let (out, before, ctx, base) = run(1);
        let job = ctx.jobs().last().unwrap();
        let cached_stages = job
            .stages
            .iter()
            .filter(|m| m.kind == StageKind::Cached)
            .count();
        assert_eq!(cached_stages, 2, "both map stages read the cache");
        let after = ctx.mem_counters();
        assert_eq!(
            after.evictions - before.evictions,
            1,
            "the first read's working set evicts the cache"
        );
        assert_eq!(
            after.rereads - before.rereads,
            1,
            "resident for the first read, spilled for the second"
        );
        assert!(ctx.evicted_once.is_empty(), "pinned input must never drop");
        assert!(ctx.materialized[&base].spilled);
        assert_eq!(out.len(), 500);
        assert!(out.iter().all(|r| match &r.value {
            Value::Pair(_, n) => n.as_int() == 8,
            other => panic!("join row {other:?}"),
        }));
        for workers in [1, 8] {
            let (o, _, c, _) = run(workers);
            assert_eq!(o, out, "workers {workers}: output");
            assert_eq!(
                c.clock().to_bits(),
                ctx.clock().to_bits(),
                "workers {workers}: job time"
            );
            assert_eq!(
                c.mem_counters(),
                after,
                "workers {workers}: memory decisions"
            );
        }
    }

    #[test]
    fn uncache_frees_the_entry_and_recomputes_on_reuse() {
        let mut opts = test_options();
        opts.executor_mem = Some(1 << 20);
        let mut ctx = Context::new(opts);
        let src = ctx.parallelize(word_records(), 4, "src");
        let doubled = ctx.map(
            src,
            Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 2))),
            1e-7,
            "doubled",
        );
        ctx.cache(doubled);
        ctx.count(doubled, "materialize");
        ctx.uncache(doubled);
        assert_eq!(ctx.mem_counters().released, 1, "uncache frees immediately");
        // Reuse still works — the read falls back to lineage recompute.
        let counts = ctx.reduce_by_key(doubled, sum(), None, 1e-6, "count");
        let out = ctx.collect(counts, "reuse");
        assert_eq!(out.len(), 10);
        for r in &out {
            assert_eq!(r.value.as_int(), 40, "20 occurrences of value 2");
        }
    }

    #[test]
    fn uncache_on_an_ungoverned_context_is_safe() {
        let mut ctx = Context::new(test_options());
        let src = ctx.parallelize(word_records(), 4, "src");
        ctx.cache(src);
        ctx.count(src, "materialize");
        ctx.uncache(src);
        let out = ctx.collect(src, "reuse");
        assert_eq!(out.len(), 200);
        assert_eq!(ctx.mem_counters().released, 0, "manager is inert");
    }

    /// Runs cache + shuffle jobs under the given options and returns the
    /// collected results plus the full job-metrics debug rendering.
    fn fault_probe(opts: EngineOptions) -> (Vec<Record>, Vec<Record>, String, Context) {
        let mut ctx = Context::new(opts);
        let data: Vec<Record> = (0..20_000)
            .map(|i| Record::new(Key::Int(i % 10), Value::Int(1)))
            .collect();
        let src = ctx.parallelize(data, 12, "src");
        let slow = ctx.map(src, Arc::new(|r: &Record| r.clone()), 2e-4, "slow");
        ctx.cache(slow);
        ctx.count(slow, "materialize");
        let counts = ctx.reduce_by_key(slow, sum(), None, 1e-6, "count");
        let first = sorted(ctx.collect(counts, "first"));
        // Reuse the cache after any injected loss to exercise re-homing.
        let counts2 = ctx.reduce_by_key(slow, sum(), None, 1e-6, "again");
        let second = sorted(ctx.collect(counts2, "second"));
        let jobs = format!("{:?}", ctx.jobs());
        (first, second, jobs, ctx)
    }

    #[test]
    fn inert_fault_plan_is_bit_identical_to_no_plan() {
        let (base_a, base_b, base_jobs, base_ctx) = fault_probe(test_options());
        let mut opts = test_options();
        opts.faults = Some(FaultPlan::default());
        let (a, b, jobs, ctx) = fault_probe(opts);
        assert_eq!(base_a, a);
        assert_eq!(base_b, b);
        assert_eq!(base_jobs, jobs, "an all-zero plan must not perturb metrics");
        assert_eq!(ctx.fault_counters(), FaultCounters::default());
        assert_eq!(base_ctx.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn task_retries_slow_the_job_but_preserve_results() {
        let (base_a, base_b, _, base_ctx) = fault_probe(test_options());
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            task_fail_prob: 0.3,
            ..FaultPlan::default()
        });
        let (a, b, _, ctx) = fault_probe(opts);
        assert_eq!(base_a, a, "retries must not change results");
        assert_eq!(base_b, b);
        let counters = ctx.fault_counters();
        assert!(counters.retried_tasks > 0, "30% failure rate must retry");
        assert!(counters.injected_failures >= counters.retried_tasks);
        let base_t: f64 = base_ctx.jobs().iter().map(|j| j.duration()).sum();
        let t: f64 = ctx.jobs().iter().map(|j| j.duration()).sum();
        assert!(
            t > base_t,
            "re-run attempts cost virtual time: {t} !> {base_t}"
        );
    }

    #[test]
    fn shuffle_corruption_is_refetched_not_propagated() {
        let (base_a, base_b, _, _) = fault_probe(test_options());
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            corrupt_prob: 0.4,
            ..FaultPlan::default()
        });
        let (a, b, _, ctx) = fault_probe(opts);
        assert_eq!(base_a, a);
        assert_eq!(base_b, b);
        let counters = ctx.fault_counters();
        assert!(counters.corrupt_chunks > 0, "40% corruption must trigger");
        assert!(counters.refetched_bytes > 0);
    }

    #[test]
    fn node_loss_recovers_cached_and_shuffle_data() {
        // Time the loss into the middle of the first shuffle job's map
        // stage (fault-free timings are deterministic): it is then applied
        // at the reduce-stage boundary, after map outputs and the cached
        // RDD landed on the doomed node.
        let (base_a, base_b, _, base_ctx) = fault_probe(test_options());
        let map_stage = &base_ctx.jobs()[1].stages[0];
        let at = 0.5 * (map_stage.start + map_stage.end);
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            node_loss: vec![NodeLoss { node: 0, at }],
            ..FaultPlan::default()
        });
        let (a, b, _, ctx) = fault_probe(opts);
        assert_eq!(base_a, a, "recovery must reproduce the shuffle results");
        assert_eq!(base_b, b, "re-homed cache must serve identical data");
        let counters = ctx.fault_counters();
        assert_eq!(counters.nodes_lost, 1);
        assert!(
            counters.recomputed_map_tasks > 0,
            "some map outputs lived on node 0 and must be recomputed: {counters:?}"
        );
        assert!(
            counters.replica_rehomed_partitions > 0,
            "some cached partitions lived on node 0 and must re-home: {counters:?}"
        );
        let base_t = base_ctx.jobs()[1].duration();
        let t = ctx.jobs()[1].duration();
        assert!(
            t > base_t,
            "recompute plus a shrunk cluster costs time: {t} !> {base_t}"
        );
    }

    #[test]
    fn stragglers_and_plan_speculation_preserve_results() {
        let (base_a, base_b, _, _) = fault_probe(test_options());
        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            stragglers: vec![Straggler {
                node: 1,
                factor: 4.0,
                at: 0.0,
            }],
            speculation: Some(1.5),
            ..FaultPlan::default()
        });
        let (a, b, _, ctx) = fault_probe(opts);
        assert_eq!(base_a, a);
        assert_eq!(base_b, b);
        assert_eq!(ctx.fault_counters().stragglers_applied, 1);
    }

    #[test]
    fn fault_options_conflicts_are_rejected() {
        let mut opts = test_options();
        opts.faults = Some(FaultPlan::default());
        opts.executor_mem = Some(1 << 30);
        let err = opts.validate().unwrap_err();
        assert!(err.contains("--executor-mem"), "got: {err}");

        let mut opts = test_options();
        opts.faults = Some(FaultPlan {
            node_loss: vec![NodeLoss { node: 9, at: 1.0 }],
            ..FaultPlan::default()
        });
        assert!(opts.validate().is_err(), "out-of-range node must fail");
    }

    #[test]
    #[should_panic(expected = "invalid engine options")]
    fn context_refuses_invalid_fault_options() {
        let mut opts = test_options();
        opts.faults = Some(FaultPlan::default());
        opts.executor_mem = Some(1 << 30);
        Context::new(opts);
    }
}
