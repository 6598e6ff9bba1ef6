//! Push-based pipelined shuffle executor: the engine's one data plane.
//!
//! Map tasks publish completed [`TaskBuckets`] into a per-shuffle
//! [`Exchange`] the moment they finish, and reduce tasks start merging as
//! soon as a deterministic prefix of map outputs is available — there is no
//! host-side barrier between a stage and its consumers. Independent sibling
//! stages (e.g. the two parents of a join) run concurrently on the same
//! [`WorkerPool`].
//!
//! **Determinism rule:** a reduce task consumes buckets strictly in map-task
//! index order — bucket `m` is taken only once map tasks `0..=m` have all
//! published (the exchange exposes a contiguous *available prefix*). Merges
//! therefore see the same byte stream at any worker count, so results,
//! per-bucket byte counts, range samples, and every simulated cost are
//! bit-identical across host parallelism.
//!
//! The executor only does data-plane work (compute, merge, bucketize). It
//! never touches the simulation, block store, or memory manager: after it
//! returns, [`crate::exec`] replays each stage in plan order against the
//! recorded [`StageData`], performing fetch accounting, simulated timing,
//! memory governance, cache persistence, metrics, and virtual-clock trace
//! emission.
//!
//! **Faults and memory.** Fault injection and recovery, and every
//! eviction/spill decision, live entirely in that replay (`exec_stage`
//! applies due plan events at each stage boundary and perturbs only the
//! simulated task specs; spilled cache entries keep their host `Arc`s).
//! In simulated terms the pipeline's consumers are parked while a lost
//! producer's map outputs are recomputed: the replay charges the recompute
//! before any consumer fetch accounting for that shuffle, even though the
//! host-side data plane already ran to completion up front.

use crate::exec::{
    capture_arc, compute_task, run_chain_and_finish, Materialized, MergeKind, RootInput,
    SampleSpec, TaskOut, TaskRecords, MERGE_BASE_COST, PARTITION_COST, SAMPLE_COST,
};
use crate::ops::{GenFn, OpKind, ReduceFn};
use crate::partitioner::{
    build_partitioner, Partitioner, PartitionerKind, PartitionerSpec, RangePartitioner,
};
use crate::pool::WorkerPool;
use crate::rdd::{Rdd, RddGraph};
use crate::record::{batch_size, Key, Record};
use crate::shuffle::{
    bucketize_in, bucketize_owned_in, Bucket, CogroupMerge, ConcatMerge, GroupMerge, JoinMerge,
    ReduceMerge, TaskArena, TaskBuckets,
};
use crate::stage::{Plan, SideDep, StageOutput, StageRoot};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use trace::{pids, Clock, TraceSink, Track};

/// Locks a mutex, ignoring poisoning (panics are re-raised by the
/// scheduler after every participant stops).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Recorded per-stage output, replayed by the driver
// ---------------------------------------------------------------------------

/// Everything the driver needs to replay one stage's virtual-cluster
/// accounting without re-touching the data plane.
pub(crate) struct StageData {
    /// Per-task outputs. For shuffle-write stages the records have been
    /// consumed by the exchange and are empty; captures survive.
    pub(crate) outs: Vec<TaskOut>,
    /// Per-task output record counts, taken before the exchange consumed
    /// the records.
    pub(crate) out_lens: Vec<u64>,
    /// Per-task output byte counts, ditto.
    pub(crate) out_bytes: Vec<u64>,
    /// `bytes[map_task][reduce_partition]` for shuffle-write stages.
    pub(crate) bucket_bytes: Option<Vec<Vec<u64>>>,
    /// Per-task bucketize cost (partitioning + map-side combine + range
    /// sampling), charged on top of the task's compute cost.
    pub(crate) extra_cost: Vec<f64>,
    /// The range bounds the stage's root output is cut by, when its root
    /// is range-partitioned.
    pub(crate) root_bounds: Option<Arc<[Key]>>,
}

/// Borrowed inputs for one pipelined job run.
pub(crate) struct PipelineInput<'a> {
    pub(crate) graph: &'a RddGraph,
    pub(crate) plan: &'a Plan,
    /// Task count per plan stage (same derivation as the driver's).
    pub(crate) num_tasks: &'a [usize],
    pub(crate) materialized: &'a HashMap<Rdd, Materialized>,
    pub(crate) pool: &'a WorkerPool,
    pub(crate) job_id: usize,
    pub(crate) trace: &'a TraceSink,
    /// Adaptive hot-partition splitting (`EngineOptions::adaptive`).
    /// Eligible consumers gate on the full map×partition byte table, the
    /// same decision input the driver's replay uses to build sub-task
    /// specs.
    pub(crate) adaptive: bool,
}

// ---------------------------------------------------------------------------
// Exchange: published map buckets, consumed in map-index order
// ---------------------------------------------------------------------------

/// One shuffle's published map outputs.
struct Exchange {
    /// Number of map tasks feeding this exchange.
    maps: usize,
    /// Number of consuming *stages*. With exactly one, a consumed bucket is
    /// taken by value (each reduce task owns its column); with more (e.g. a
    /// self-join reading both sides from one shuffle) buckets are shared.
    consumers: usize,
    /// Shared empty bucket used to cheaply replace taken columns.
    empty: Arc<Vec<Record>>,
    /// The adaptive split decision for this shuffle, computed once from
    /// the complete byte table (all maps published). Only consulted by
    /// split-gated consumer stages.
    split: OnceLock<Option<crate::adaptive::SplitPlan>>,
    inner: Mutex<ExInner>,
}

struct ExInner {
    /// `rows[map_task][reduce_partition]`, `None` until published.
    rows: Vec<Option<Vec<Bucket>>>,
    /// Serialized bytes per published bucket, same shape.
    bytes: Vec<Option<Vec<u64>>>,
    /// Length of the contiguous published prefix: buckets of map tasks
    /// `0..avail` may be consumed.
    avail: usize,
    /// Units parked until the prefix advances.
    waiters: Vec<usize>,
}

impl Exchange {
    fn new(maps: usize, consumers: usize) -> Exchange {
        Exchange {
            maps,
            consumers,
            empty: Arc::new(Vec::new()),
            split: OnceLock::new(),
            inner: Mutex::new(ExInner {
                rows: (0..maps).map(|_| None).collect(),
                bytes: (0..maps).map(|_| None).collect(),
                avail: 0,
                waiters: Vec::new(),
            }),
        }
    }
}

/// A consumed bucket: owned outright when this exchange has a single
/// consuming stage (the merge can move the records), shared otherwise.
enum Taken {
    Owned(Vec<Record>),
    Shared(Bucket),
}

impl Taken {
    fn len(&self) -> usize {
        match self {
            Taken::Owned(v) => v.len(),
            Taken::Shared(a) => a.len(),
        }
    }
}

/// Takes map task `m`'s bucket for reduce partition `col`, or parks `uid`
/// on the exchange if `m` is past the published prefix. Returns the bucket
/// plus its serialized byte count (as published by the producer, which is
/// bit-identical to recomputing `batch_size` on the bucket).
fn take_or_park(ex: &Exchange, m: usize, col: usize, uid: usize) -> Option<(Taken, u64)> {
    let mut inner = lock(&ex.inner);
    if m >= inner.avail {
        inner.waiters.push(uid);
        return None;
    }
    let bytes = inner.bytes[m].as_ref().expect("published")[col];
    let row = inner.rows[m].as_mut().expect("published");
    let bucket = if ex.consumers > 1 {
        Taken::Shared(Arc::clone(&row[col]))
    } else {
        // Sole consumer: take the column and try to own it outright so the
        // merge can move records instead of cloning them.
        let arc = mem::replace(&mut row[col], Arc::clone(&ex.empty));
        match Arc::try_unwrap(arc) {
            Ok(v) => Taken::Owned(v),
            Err(shared) => Taken::Shared(shared),
        }
    };
    Some((bucket, bytes))
}

// ---------------------------------------------------------------------------
// Stage recipes: the pure data-plane shape of each plan stage
// ---------------------------------------------------------------------------

/// A root whose inputs are fully available at job start.
enum SimpleSrc {
    /// In-memory collection, sliced per task.
    Slice(Arc<Vec<Record>>),
    /// Deterministic generator (block-store reads are replayed later).
    Gen(GenFn),
    /// Cached partitions, one per task.
    Cached(Vec<Arc<Vec<Record>>>),
}

/// Where one join side's data comes from.
enum SideRecipe {
    /// Exchange index: consumed bucket-by-bucket in map order.
    Exchange(usize),
    /// Materialized narrow side: partition `i` feeds task `i` whole.
    Narrow(Vec<Arc<Vec<Record>>>),
}

enum RootRecipe {
    Simple(SimpleSrc),
    Shuffle {
        ex: usize,
        merge: MergeKind,
        /// `Some(base_seed)` when this stage is adaptive-split eligible:
        /// its units gate on the full byte table before merging, and hot
        /// columns split with per-task router seeds derived from the base.
        split_seed: Option<u64>,
    },
    Join {
        left: SideRecipe,
        right: SideRecipe,
        is_join: bool,
        cost: f64,
    },
}

enum OutputRecipe {
    Result,
    Shuffle {
        ex: usize,
        combine: Option<ReduceFn>,
        combine_cost: f64,
        /// Index into the job's [`Cut`]s.
        cut: usize,
    },
}

struct StageRecipe {
    chain: Vec<Rdd>,
    root_rdd: Rdd,
    capture_root: bool,
    tasks: usize,
    root: RootRecipe,
    output: OutputRecipe,
    sample: Option<SampleSpec>,
}

/// The partitioner every shuffle into one wide RDD cuts by. A join's two
/// sides share one, so equal keys meet in the same reduce task.
///
/// Hash partitioners, and range partitioners whose bounds a narrow join
/// side fixes, exist up front. Any other range partitioner needs every
/// producer task's reservoir sample, so its writes wait at a barrier until
/// all tasks of all producer stages have deposited their outputs; the last
/// depositor builds the bounds from the samples in shuffle order (a join's
/// left side first), then task order, so they are independent of worker
/// scheduling. Pipelining still overlaps the producers' compute with
/// upstream stages.
struct Cut {
    spec: PartitionerSpec,
    /// Seed of the sampled bounds: the first producer stage's.
    seed: u64,
    /// Producer stages, in shuffle order.
    producers: Vec<usize>,
    partitioner: OnceLock<Arc<dyn Partitioner>>,
    barrier: Mutex<Barrier>,
}

struct Barrier {
    deposited: usize,
    waiters: Vec<usize>,
}

/// Deposited output of one completed task.
#[derive(Default)]
struct TaskSlot {
    out: Option<TaskOut>,
    out_len: u64,
    out_bytes: u64,
    extra_cost: f64,
}

// ---------------------------------------------------------------------------
// Units: one state machine per (stage, task)
// ---------------------------------------------------------------------------

enum MergeAcc {
    Reduce(ReduceMerge, f64),
    Group(GroupMerge, f64),
    Concat(ConcatMerge),
}

struct ShuffleProgress {
    /// Next map-task index to consume.
    next: usize,
    acc: MergeAcc,
    fetched: u64,
    bytes: u64,
}

enum JoinAcc {
    Join(JoinMerge),
    Cogroup(CogroupMerge),
}

struct JoinProgress {
    lnext: usize,
    rnext: usize,
    sealed: bool,
    acc: JoinAcc,
    fetched: u64,
    bytes: u64,
}

enum UnitState {
    Fresh,
    /// Split-eligible reduce task parked until every map has published:
    /// the split decision needs the complete map×partition byte table.
    SplitGate,
    Shuffle(ShuffleProgress),
    Join(JoinProgress),
    /// Output deposited; waiting on the range barrier before bucketizing.
    Bucketize,
}

struct Unit {
    stage: usize,
    task: usize,
    state: UnitState,
    /// Wall time of the unit's first scheduling (overlap span bookkeeping).
    start: f64,
}

enum Progress {
    Done,
    Parked,
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

struct SchedState {
    queue: VecDeque<usize>,
    /// Units not yet completed.
    remaining: usize,
    /// A unit panicked; every participant drains out.
    poisoned: bool,
}

struct Sched {
    state: Mutex<SchedState>,
    cv: Condvar,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Sched {
    fn enqueue_many(&self, uids: Vec<usize>) {
        if uids.is_empty() {
            return;
        }
        let mut st = lock(&self.state);
        st.queue.extend(uids);
        drop(st);
        self.cv.notify_all();
    }
}

struct Runtime<'a> {
    graph: &'a RddGraph,
    recipes: &'a [StageRecipe],
    exchanges: &'a [Exchange],
    units: &'a [Mutex<Unit>],
    slots: &'a [Vec<Mutex<TaskSlot>>],
    cuts: &'a [Cut],
    spans: &'a [Mutex<Option<(f64, f64)>>],
    sched: &'a Sched,
    pool: &'a WorkerPool,
    sink: &'a TraceSink,
}

/// Runs the whole job's data plane with push-based pipelining and returns
/// one [`StageData`] per plan stage, in plan order.
pub(crate) fn run_pipelined(input: PipelineInput<'_>) -> Vec<StageData> {
    let PipelineInput {
        graph,
        plan,
        num_tasks,
        materialized,
        pool,
        job_id,
        trace: sink,
        adaptive,
    } = input;

    // How many stages consume each shuffle (a self-join counts its one
    // shuffle twice): the exchange only hands out owned buckets when there
    // is exactly one consuming stage.
    let mut consumers = vec![0usize; plan.shuffles.len()];
    for stage in &plan.stages {
        match &stage.root {
            StageRoot::ShuffleRead { shuffle, .. } => consumers[*shuffle] += 1,
            StageRoot::JoinRead { left, right, .. } => {
                for dep in [left, right] {
                    if let SideDep::Shuffle(s) = dep {
                        consumers[*s] += 1;
                    }
                }
            }
            _ => {}
        }
    }
    let exchanges: Vec<Exchange> = plan
        .shuffles
        .iter()
        .enumerate()
        .map(|(sidx, spec)| Exchange::new(num_tasks[spec.producer_stage], consumers[sidx]))
        .collect();

    // One cut per wide RDD that reads shuffles: a join's sides share it.
    let mut cuts: Vec<Cut> = Vec::new();
    let mut cut_of_wide: HashMap<Rdd, usize> = HashMap::new();
    let cut_of: Vec<usize> = plan
        .shuffles
        .iter()
        .map(|spec| {
            let c = *cut_of_wide.entry(spec.for_wide).or_insert_with(|| {
                let seed = stage_seed(job_id, spec.producer_stage);
                let partitioner = OnceLock::new();
                if spec.scheme.kind == PartitionerKind::Hash {
                    let _ =
                        partitioner.set(build_partitioner(spec.scheme, std::iter::empty(), seed));
                }
                cuts.push(Cut {
                    spec: spec.scheme,
                    seed,
                    producers: Vec::new(),
                    partitioner,
                    barrier: Mutex::new(Barrier {
                        deposited: 0,
                        waiters: Vec::new(),
                    }),
                });
                cuts.len() - 1
            });
            cuts[c].producers.push(spec.producer_stage);
            c
        })
        .collect();
    // A shuffled side joining a narrow range side is cut by its bounds.
    for stage in &plan.stages {
        if let StageRoot::JoinRead { left, right, .. } = &stage.root {
            if let (SideDep::Narrow(rdd), SideDep::Shuffle(s))
            | (SideDep::Shuffle(s), SideDep::Narrow(rdd)) = (*left, *right)
            {
                let cut = &cuts[cut_of[s]];
                if let Some(bounds) = &materialized[&rdd].bounds {
                    let _ = cut.partitioner.set(Arc::new(RangePartitioner::from_bounds(
                        bounds.to_vec(),
                        cut.spec.partitions,
                    )));
                }
            }
        }
    }
    let bounds_of = |sidx: usize| -> Option<Arc<[Key]>> {
        cuts[cut_of[sidx]]
            .partitioner
            .get()
            .and_then(|p| p.range_bounds())
            .map(Arc::from)
    };

    let recipes: Vec<StageRecipe> = plan
        .stages
        .iter()
        .enumerate()
        .map(|(s, stage)| {
            let tasks = num_tasks[s];
            let root = match &stage.root {
                StageRoot::Source(rdd) => match &graph.node(*rdd).op {
                    OpKind::SourceCollection { data, .. } => {
                        RootRecipe::Simple(SimpleSrc::Slice(Arc::clone(data)))
                    }
                    OpKind::SourceBlocks { gen, .. } => {
                        RootRecipe::Simple(SimpleSrc::Gen(Arc::clone(gen)))
                    }
                    other => unreachable!("source stage over {other:?}"),
                },
                StageRoot::CachedRead(rdd) => {
                    RootRecipe::Simple(SimpleSrc::Cached(materialized[rdd].parts.clone()))
                }
                StageRoot::ShuffleRead { wide, shuffle } => {
                    let c = graph.node(*wide).cost_per_record;
                    let merge = match &graph.node(*wide).op {
                        OpKind::ReduceByKey { f, .. } => MergeKind::Reduce(Arc::clone(f), c),
                        OpKind::GroupByKey { .. } => MergeKind::Group(c),
                        OpKind::Repartition { .. } => MergeKind::Concat,
                        other => unreachable!("single-parent wide op expected, got {other:?}"),
                    };
                    // Same eligibility test as the driver's replay in
                    // `exec_stage`, so both agree on which stages split.
                    let split_seed = (adaptive
                        && crate::adaptive::split_eligible(plan, graph, s).is_some())
                    .then(|| crate::adaptive::split_seed(job_id, s));
                    RootRecipe::Shuffle {
                        ex: *shuffle,
                        merge,
                        split_seed,
                    }
                }
                StageRoot::JoinRead { wide, left, right } => {
                    let side = |dep: &SideDep| match dep {
                        SideDep::Shuffle(s) => SideRecipe::Exchange(*s),
                        SideDep::Narrow(rdd) => SideRecipe::Narrow(materialized[rdd].parts.clone()),
                    };
                    RootRecipe::Join {
                        left: side(left),
                        right: side(right),
                        is_join: matches!(graph.node(*wide).op, OpKind::Join { .. }),
                        cost: graph.node(*wide).cost_per_record,
                    }
                }
            };
            let output = match stage.output {
                StageOutput::Result => OutputRecipe::Result,
                StageOutput::ShuffleWrite(sidx) => {
                    let combine = if plan.shuffles[sidx].combine {
                        match &graph.node(plan.shuffles[sidx].for_wide).op {
                            OpKind::ReduceByKey { f, .. } => Some(Arc::clone(f)),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    OutputRecipe::Shuffle {
                        ex: sidx,
                        combine,
                        combine_cost: graph.node(plan.shuffles[sidx].for_wide).cost_per_record,
                        cut: cut_of[sidx],
                    }
                }
            };
            // Writes into a cut without a partitioner yet reservoir-sample
            // their output, seeded per stage.
            let sample = match &output {
                OutputRecipe::Shuffle { cut, .. } if cuts[*cut].partitioner.get().is_none() => {
                    Some(SampleSpec {
                        cap: (20 * cuts[*cut].spec.partitions)
                            .div_ceil(tasks.max(1))
                            .max(8),
                        seed: stage_seed(job_id, s),
                    })
                }
                _ => None,
            };
            let root_rdd = stage.root_rdd();
            // Evaluated at job start, so an RDD that two stages of this job
            // both compute is captured by each; the driver's replay keeps
            // the first capture and drops the rest with no observable
            // divergence (captures are cost-free).
            let capture_root = graph.node(root_rdd).cached
                && !materialized.contains_key(&root_rdd)
                && !matches!(stage.root, StageRoot::CachedRead(_));
            StageRecipe {
                chain: stage.chain.clone(),
                root_rdd,
                capture_root,
                tasks,
                root,
                output,
                sample,
            }
        })
        .collect();

    let slots: Vec<Vec<Mutex<TaskSlot>>> = recipes
        .iter()
        .map(|r| (0..r.tasks).map(|_| Mutex::default()).collect())
        .collect();

    // Units enqueued in (stage, task) order: with one worker, execution is
    // exactly plan order and no unit ever parks (producers precede their
    // consumers); with more workers, consumers start early and overlap.
    let mut units: Vec<Mutex<Unit>> = Vec::new();
    for (s, recipe) in recipes.iter().enumerate() {
        for t in 0..recipe.tasks {
            units.push(Mutex::new(Unit {
                stage: s,
                task: t,
                state: UnitState::Fresh,
                start: 0.0,
            }));
        }
    }
    let spans: Vec<Mutex<Option<(f64, f64)>>> =
        (0..recipes.len()).map(|_| Mutex::new(None)).collect();
    let sched = Sched {
        state: Mutex::new(SchedState {
            queue: (0..units.len()).collect(),
            remaining: units.len(),
            poisoned: false,
        }),
        cv: Condvar::new(),
        panic_payload: Mutex::new(None),
    };

    let rt = Runtime {
        graph,
        recipes: &recipes,
        exchanges: &exchanges,
        units: &units,
        slots: &slots,
        cuts: &cuts,
        spans: &spans,
        sched: &sched,
        pool,
        sink,
    };
    let rt_ref = &rt;
    // One scheduler loop per pool lane. Host-side concurrency only — the
    // unit queue and virtual accounting are identical at any width.
    pool.map_with(pool.workers(), |_, participant| {
        scheduler_loop(rt_ref, participant)
    });

    if let Some(payload) = lock(&sched.panic_payload).take() {
        panic::resume_unwind(payload);
    }
    debug_assert_eq!(lock(&sched.state).remaining, 0, "all units completed");

    // Map/reduce overlap visibility: one wall span per stage covering its
    // first task start to its last task end — overlapping spans across
    // stages show the pipeline working.
    if sink.is_enabled() {
        let track = Track::new(pids::POOL, 2);
        if !sink.has_thread_name(track) {
            sink.name_thread(track, "pipeline stages");
        }
        for (s, span) in spans.iter().enumerate() {
            if let Some((start, end)) = *lock(span) {
                let tag = graph.node(plan.stages[s].terminal).tag;
                sink.span(
                    Clock::Wall,
                    track,
                    format!("pipeline j{job_id}.p{s} {tag}"),
                    "pipeline",
                    start,
                    end,
                    vec![("tasks", recipes[s].tasks.into())],
                );
            }
        }
    }

    // Assemble the per-stage replay data.
    recipes
        .iter()
        .enumerate()
        .map(|(s, recipe)| {
            let mut outs = Vec::with_capacity(recipe.tasks);
            let mut out_lens = Vec::with_capacity(recipe.tasks);
            let mut out_bytes = Vec::with_capacity(recipe.tasks);
            let mut extra_cost = Vec::with_capacity(recipe.tasks);
            for cell in slots[s].iter().take(recipe.tasks) {
                let slot = mem::take(&mut *lock(cell));
                outs.push(slot.out.expect("unit deposited"));
                out_lens.push(slot.out_len);
                out_bytes.push(slot.out_bytes);
                extra_cost.push(slot.extra_cost);
            }
            let bucket_bytes = match &recipe.output {
                OutputRecipe::Shuffle { ex, .. } => {
                    let inner = lock(&exchanges[*ex].inner);
                    Some(
                        inner
                            .bytes
                            .iter()
                            .map(|b| b.clone().expect("all maps published"))
                            .collect(),
                    )
                }
                OutputRecipe::Result => None,
            };
            let root_bounds = match &plan.stages[s].root {
                StageRoot::Source(_) => None,
                StageRoot::CachedRead(rdd) => materialized[rdd].bounds.clone(),
                StageRoot::ShuffleRead { shuffle, .. } => bounds_of(*shuffle),
                StageRoot::JoinRead { left, right, .. } => match (left, right) {
                    (SideDep::Shuffle(sidx), _) | (_, SideDep::Shuffle(sidx)) => bounds_of(*sidx),
                    (SideDep::Narrow(rdd), _) => materialized[rdd].bounds.clone(),
                },
            };
            StageData {
                outs,
                out_lens,
                out_bytes,
                bucket_bytes,
                extra_cost,
                root_bounds,
            }
        })
        .collect()
}

/// One participant's scheduling loop: pull runnable units until every unit
/// has completed (or a panic poisons the run).
fn scheduler_loop(rt: &Runtime<'_>, participant: usize) {
    loop {
        let uid = {
            let mut st = lock(&rt.sched.state);
            loop {
                if st.remaining == 0 || st.poisoned {
                    return;
                }
                if let Some(uid) = st.queue.pop_front() {
                    break uid;
                }
                st = rt
                    .sched
                    .cv
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        match panic::catch_unwind(AssertUnwindSafe(|| run_unit(rt, uid, participant))) {
            Ok(Progress::Parked) => {}
            Ok(Progress::Done) => {
                let mut st = lock(&rt.sched.state);
                st.remaining -= 1;
                if st.remaining == 0 {
                    drop(st);
                    rt.sched.cv.notify_all();
                }
            }
            Err(payload) => {
                let mut slot = lock(&rt.sched.panic_payload);
                if slot.is_none() {
                    *slot = Some(payload);
                }
                drop(slot);
                let mut st = lock(&rt.sched.state);
                st.poisoned = true;
                drop(st);
                rt.sched.cv.notify_all();
                return;
            }
        }
    }
}

/// Advances one unit as far as its inputs allow.
fn run_unit(rt: &Runtime<'_>, uid: usize, participant: usize) -> Progress {
    let mut unit = lock(&rt.units[uid]);
    let task = unit.task;
    let recipe = &rt.recipes[unit.stage];
    if matches!(unit.state, UnitState::Fresh) && rt.sink.is_enabled() {
        unit.start = rt.sink.wall_now();
    }
    loop {
        match &mut unit.state {
            UnitState::Fresh => match &recipe.root {
                RootRecipe::Simple(src) => {
                    let input = match src {
                        SimpleSrc::Slice(data) => {
                            let len = data.len();
                            let start = task * len / recipe.tasks;
                            let end = (task + 1) * len / recipe.tasks;
                            RootInput::Slice(Arc::clone(data), start, end)
                        }
                        SimpleSrc::Gen(gen) => RootInput::Gen(Arc::clone(gen), task, recipe.tasks),
                        SimpleSrc::Cached(parts) => RootInput::Cached(Arc::clone(&parts[task])),
                    };
                    let out = compute_task(
                        rt.graph,
                        &input,
                        &recipe.chain,
                        task,
                        recipe.capture_root,
                        recipe.root_rdd,
                        recipe.sample.as_ref(),
                    );
                    return finish_unit(rt, &mut unit, uid, out, participant);
                }
                RootRecipe::Shuffle {
                    merge, split_seed, ..
                } => {
                    if split_seed.is_some() {
                        unit.state = UnitState::SplitGate;
                        continue;
                    }
                    unit.state = UnitState::Shuffle(ShuffleProgress {
                        next: 0,
                        acc: match merge {
                            MergeKind::Reduce(f, c) => {
                                MergeAcc::Reduce(ReduceMerge::new(Arc::clone(f)), *c)
                            }
                            MergeKind::Group(c) => MergeAcc::Group(GroupMerge::new(), *c),
                            MergeKind::Concat => MergeAcc::Concat(ConcatMerge::new()),
                        },
                        fetched: 0,
                        bytes: 0,
                    });
                }
                RootRecipe::Join { is_join, .. } => {
                    unit.state = UnitState::Join(JoinProgress {
                        lnext: 0,
                        rnext: 0,
                        sealed: false,
                        acc: if *is_join {
                            JoinAcc::Join(JoinMerge::new())
                        } else {
                            JoinAcc::Cogroup(CogroupMerge::new())
                        },
                        fetched: 0,
                        bytes: 0,
                    });
                }
            },
            UnitState::SplitGate => {
                let RootRecipe::Shuffle {
                    ex,
                    merge,
                    split_seed,
                } = &recipe.root
                else {
                    unreachable!()
                };
                let exch = &rt.exchanges[*ex];
                // Park until every map has published: the split decision
                // is a function of the complete byte table. Eligible
                // stages read range shuffles, whose map side synchronizes
                // on the sample barrier anyway, so no overlap is lost.
                {
                    let mut inner = lock(&exch.inner);
                    if inner.avail < exch.maps {
                        inner.waiters.push(uid);
                        return Progress::Parked;
                    }
                }
                let split = exch.split.get_or_init(|| {
                    let inner = lock(&exch.inner);
                    let p = inner.bytes[0].as_ref().expect("published").len();
                    let cols: Vec<u64> = (0..p)
                        .map(|i| {
                            inner
                                .bytes
                                .iter()
                                .map(|b| b.as_ref().expect("published")[i])
                                .sum()
                        })
                        .collect();
                    crate::adaptive::plan_splits(&cols)
                });
                let k = split.as_ref().map_or(1, |sp| sp.subs[task]);
                if k <= 1 {
                    // Cold partition: the normal incremental merge, which
                    // now consumes the (fully available) column in one go.
                    unit.state = UnitState::Shuffle(ShuffleProgress {
                        next: 0,
                        acc: match merge {
                            MergeKind::Reduce(f, c) => {
                                MergeAcc::Reduce(ReduceMerge::new(Arc::clone(f)), *c)
                            }
                            MergeKind::Group(c) => MergeAcc::Group(GroupMerge::new(), *c),
                            MergeKind::Concat => MergeAcc::Concat(ConcatMerge::new()),
                        },
                        fetched: 0,
                        bytes: 0,
                    });
                    continue;
                }
                // Hot partition: take the whole column in map order and
                // run the key-preserving split merge.
                let mut maps_rows: Vec<Vec<Record>> = Vec::with_capacity(exch.maps);
                let mut fetched = 0u64;
                let mut bytes = 0u64;
                for m in 0..exch.maps {
                    let (bucket, b) =
                        take_or_park(exch, m, task, uid).expect("full prefix published");
                    fetched += bucket.len() as u64;
                    bytes += b;
                    maps_rows.push(match bucket {
                        Taken::Owned(v) => v,
                        Taken::Shared(a) => a.as_ref().clone(),
                    });
                }
                let seed = split_seed.expect("gated stage has a seed")
                    ^ ((task as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                let router = crate::adaptive::SubRouter::build(
                    maps_rows.iter().flatten().map(|r| &r.key),
                    k,
                    seed,
                );
                let (records, cost, stats) =
                    crate::adaptive::merge_split(maps_rows, merge, &router);
                let records = TaskRecords::Owned(records);
                let mut captures = Vec::new();
                if recipe.capture_root {
                    captures.push((recipe.root_rdd, capture_arc(&records)));
                }
                let mut out = run_chain_and_finish(
                    rt.graph,
                    &recipe.chain,
                    task,
                    records,
                    cost,
                    fetched,
                    bytes,
                    captures,
                    recipe.sample.as_ref(),
                );
                out.sub_stats = Some(stats);
                return finish_unit(rt, &mut unit, uid, out, participant);
            }
            UnitState::Shuffle(sp) => {
                let RootRecipe::Shuffle { ex, .. } = &recipe.root else {
                    unreachable!()
                };
                let exch = &rt.exchanges[*ex];
                while sp.next < exch.maps {
                    let Some((bucket, b)) = take_or_park(exch, sp.next, task, uid) else {
                        return Progress::Parked;
                    };
                    sp.fetched += bucket.len() as u64;
                    sp.bytes += b;
                    match (&mut sp.acc, bucket) {
                        (MergeAcc::Reduce(m, _), Taken::Owned(v)) => m.push_owned(v),
                        (MergeAcc::Reduce(m, _), Taken::Shared(a)) => m.push_slice(&a),
                        (MergeAcc::Group(m, _), Taken::Owned(v)) => m.push_owned(v),
                        (MergeAcc::Group(m, _), Taken::Shared(a)) => m.push_slice(&a),
                        (MergeAcc::Concat(m), Taken::Owned(v)) => m.push_owned(v),
                        (MergeAcc::Concat(m), Taken::Shared(a)) => m.push_slice(&a),
                    }
                    sp.next += 1;
                }
                break;
            }
            UnitState::Join(jp) => {
                let RootRecipe::Join { left, right, .. } = &recipe.root else {
                    unreachable!()
                };
                // Drain the left side fully, seal, then the right: the
                // merge sees both streams in map-index order.
                if !consume_side(rt, left, task, uid, jp, true) {
                    return Progress::Parked;
                }
                if !jp.sealed {
                    match &mut jp.acc {
                        JoinAcc::Join(m) => m.seal_left(),
                        JoinAcc::Cogroup(m) => m.seal_left(),
                    }
                    jp.sealed = true;
                }
                if !consume_side(rt, right, task, uid, jp, false) {
                    return Progress::Parked;
                }
                break;
            }
            UnitState::Bucketize => {
                return bucketize_from_slot(rt, &mut unit, participant);
            }
        }
    }

    // A merge-root unit consumed every input: finish the merge (charging
    // costs in a fixed f64 accumulation order), run the narrow chain, and
    // hand the output on.
    let state = mem::replace(&mut unit.state, UnitState::Bucketize);
    let (records, cost, fetched, bytes) = match state {
        UnitState::Shuffle(sp) => {
            let mut cost = 0.0;
            cost += sp.fetched as f64 * MERGE_BASE_COST;
            let records = match sp.acc {
                MergeAcc::Reduce(m, c) => {
                    let (out, ops) = m.finish();
                    cost += ops as f64 * c;
                    out
                }
                MergeAcc::Group(m, c) => {
                    cost += sp.fetched as f64 * c;
                    m.finish()
                }
                MergeAcc::Concat(m) => m.finish(),
            };
            (records, cost, sp.fetched, sp.bytes)
        }
        UnitState::Join(jp) => {
            let RootRecipe::Join { cost: c, .. } = &recipe.root else {
                unreachable!()
            };
            let mut cost = 0.0;
            cost += jp.fetched as f64 * (MERGE_BASE_COST + c);
            let records = match jp.acc {
                JoinAcc::Join(m) => {
                    let (out, probes) = m.finish();
                    cost += probes as f64 * MERGE_BASE_COST;
                    out
                }
                JoinAcc::Cogroup(m) => m.finish(),
            };
            (records, cost, jp.fetched, jp.bytes)
        }
        _ => unreachable!(),
    };
    let records = TaskRecords::Owned(records);
    let mut captures = Vec::new();
    if recipe.capture_root {
        captures.push((recipe.root_rdd, capture_arc(&records)));
    }
    let out = run_chain_and_finish(
        rt.graph,
        &recipe.chain,
        task,
        records,
        cost,
        fetched,
        bytes,
        captures,
        recipe.sample.as_ref(),
    );
    finish_unit(rt, &mut unit, uid, out, participant)
}

/// Consumes one join side into the accumulator. Returns `false` if parked.
fn consume_side(
    rt: &Runtime<'_>,
    side: &SideRecipe,
    task: usize,
    uid: usize,
    jp: &mut JoinProgress,
    is_left: bool,
) -> bool {
    let next = if is_left {
        &mut jp.lnext
    } else {
        &mut jp.rnext
    };
    match side {
        SideRecipe::Narrow(parts) => {
            if *next == 0 {
                let part = &parts[task];
                jp.fetched += part.len() as u64;
                jp.bytes += batch_size(part);
                match &mut jp.acc {
                    JoinAcc::Join(m) if is_left => m.push_left_slice(part),
                    JoinAcc::Join(m) => m.push_right_slice(part),
                    JoinAcc::Cogroup(m) if is_left => m.push_left_slice(part),
                    JoinAcc::Cogroup(m) => m.push_right_slice(part),
                }
                *next = 1;
            }
            true
        }
        SideRecipe::Exchange(e) => {
            let exch = &rt.exchanges[*e];
            while *next < exch.maps {
                let Some((bucket, b)) = take_or_park(exch, *next, task, uid) else {
                    return false;
                };
                jp.fetched += bucket.len() as u64;
                jp.bytes += b;
                match (&mut jp.acc, bucket) {
                    (JoinAcc::Join(m), Taken::Owned(v)) if is_left => m.push_left_owned(v),
                    (JoinAcc::Join(m), Taken::Owned(v)) => m.push_right_owned(v),
                    (JoinAcc::Join(m), Taken::Shared(a)) if is_left => m.push_left_slice(&a),
                    (JoinAcc::Join(m), Taken::Shared(a)) => m.push_right_slice(&a),
                    (JoinAcc::Cogroup(m), Taken::Owned(v)) if is_left => m.push_left_owned(v),
                    (JoinAcc::Cogroup(m), Taken::Owned(v)) => m.push_right_owned(v),
                    (JoinAcc::Cogroup(m), Taken::Shared(a)) if is_left => m.push_left_slice(&a),
                    (JoinAcc::Cogroup(m), Taken::Shared(a)) => m.push_right_slice(&a),
                }
                *next += 1;
            }
            true
        }
    }
}

/// Routes a finished task output: deposit for result stages, bucketize and
/// publish for shuffle writes (range writes first wait for the stage-wide
/// sample barrier).
fn finish_unit(
    rt: &Runtime<'_>,
    unit: &mut Unit,
    uid: usize,
    out: TaskOut,
    participant: usize,
) -> Progress {
    let (s, task) = (unit.stage, unit.task);
    let recipe = &rt.recipes[s];
    let out_len = out.records.len() as u64;
    let out_bytes = batch_size(out.records.as_slice());
    match &recipe.output {
        OutputRecipe::Result => {
            let mut slot = lock(&rt.slots[s][task]);
            slot.out = Some(out);
            slot.out_len = out_len;
            slot.out_bytes = out_bytes;
            drop(slot);
            complete(rt, unit);
            Progress::Done
        }
        OutputRecipe::Shuffle {
            ex,
            combine,
            combine_cost,
            cut,
        } if recipe.sample.is_none() => {
            // The partitioner exists up front: bucketize inline and
            // publish immediately.
            let p = rt.cuts[*cut]
                .partitioner
                .get()
                .expect("unsampled cut has its partitioner");
            let mut out = out;
            let (tb, extra) = {
                let records = mem::replace(&mut out.records, TaskRecords::Owned(Vec::new()));
                let n = records.len() as f64;
                let mut arena = rt.pool.arena(participant);
                let (tb, combine_ops) = bucketize_task(records, &**p, combine.as_ref(), &mut arena);
                (tb, n * PARTITION_COST + combine_ops as f64 * combine_cost)
            };
            let mut slot = lock(&rt.slots[s][task]);
            slot.out = Some(out);
            slot.out_len = out_len;
            slot.out_bytes = out_bytes;
            slot.extra_cost = extra;
            drop(slot);
            publish(rt, *ex, task, tb);
            complete(rt, unit);
            Progress::Done
        }
        OutputRecipe::Shuffle { cut, .. } => {
            {
                let mut slot = lock(&rt.slots[s][task]);
                slot.out = Some(out);
                slot.out_len = out_len;
                slot.out_bytes = out_bytes;
            }
            unit.state = UnitState::Bucketize;
            let cut = &rt.cuts[*cut];
            let total: usize = cut.producers.iter().map(|&p| rt.recipes[p].tasks).sum();
            let mut st = lock(&cut.barrier);
            st.deposited += 1;
            if st.deposited < total {
                st.waiters.push(uid);
                return Progress::Parked;
            }
            // Last depositor: build the range partitioner from every
            // producer task's reservoir sample.
            let woken = mem::take(&mut st.waiters);
            drop(st);
            let mut keys: Vec<Key> = Vec::new();
            for &p in &cut.producers {
                for cell in &rt.slots[p] {
                    let slot = lock(cell);
                    let out = slot.out.as_ref().expect("all tasks deposited");
                    keys.extend(out.sample.iter().cloned());
                }
            }
            let _ = cut
                .partitioner
                .set(build_partitioner(cut.spec, keys.iter(), cut.seed));
            rt.sched.enqueue_many(woken);
            bucketize_from_slot(rt, unit, participant)
        }
    }
}

/// Bucketizes a deposited range-stage output once the partitioner exists.
fn bucketize_from_slot(rt: &Runtime<'_>, unit: &mut Unit, participant: usize) -> Progress {
    let (s, task) = (unit.stage, unit.task);
    let recipe = &rt.recipes[s];
    let OutputRecipe::Shuffle {
        ex,
        combine,
        combine_cost,
        cut,
    } = &recipe.output
    else {
        unreachable!("bucketize state only for shuffle writes")
    };
    let p = rt.cuts[*cut]
        .partitioner
        .get()
        .expect("partitioner built at barrier");
    let records = {
        let mut slot = lock(&rt.slots[s][task]);
        let out = slot.out.as_mut().expect("deposited before barrier");
        mem::replace(&mut out.records, TaskRecords::Owned(Vec::new()))
    };
    let (tb, extra) = {
        let n = records.len() as f64;
        let mut arena = rt.pool.arena(participant);
        let (tb, combine_ops) = bucketize_task(records, &**p, combine.as_ref(), &mut arena);
        (
            tb,
            n * PARTITION_COST + combine_ops as f64 * combine_cost + n * SAMPLE_COST,
        )
    };
    lock(&rt.slots[s][task]).extra_cost = extra;
    publish(rt, *ex, task, tb);
    complete(rt, unit);
    Progress::Done
}

/// Bucketizes a finished task's records, *moving* them into buckets when
/// the task owns its output (the common case) and borrowing when the
/// records window a shared cache partition. Both paths produce identical
/// buckets and byte tables.
fn bucketize_task(
    records: TaskRecords,
    partitioner: &dyn Partitioner,
    combine: Option<&ReduceFn>,
    arena: &mut TaskArena,
) -> (TaskBuckets, u64) {
    match records {
        TaskRecords::Owned(v) => bucketize_owned_in(v, partitioner, combine, arena),
        shared => bucketize_in(shared.as_slice(), partitioner, combine, arena),
    }
}

/// Seed of a stage's range-partitioner sample.
fn stage_seed(job_id: usize, stage: usize) -> u64 {
    (job_id as u64) << 32 | (stage as u64) << 8 | 0xC0
}

/// Publishes one map task's buckets and wakes consumers if the available
/// prefix advanced.
fn publish(rt: &Runtime<'_>, ex_idx: usize, map: usize, tb: TaskBuckets) {
    let ex = &rt.exchanges[ex_idx];
    let (woken, avail) = {
        let mut inner = lock(&ex.inner);
        inner.rows[map] = Some(tb.buckets);
        inner.bytes[map] = Some(tb.bytes);
        let mut advanced = false;
        while inner.avail < ex.maps && inner.rows[inner.avail].is_some() {
            inner.avail += 1;
            advanced = true;
        }
        let woken = if advanced {
            mem::take(&mut inner.waiters)
        } else {
            Vec::new()
        };
        (woken, inner.avail)
    };
    if rt.sink.is_enabled() {
        let track = Track::new(pids::POOL, 3);
        if !rt.sink.has_thread_name(track) {
            rt.sink.name_thread(track, "exchange");
        }
        rt.sink.counter(
            Clock::Wall,
            track,
            format!("exchange.s{ex_idx}.avail"),
            "exchange",
            rt.sink.wall_now(),
            avail as f64,
        );
    }
    rt.sched.enqueue_many(woken);
}

/// Folds this unit's wall window into its stage's overlap span.
fn complete(rt: &Runtime<'_>, unit: &Unit) {
    if !rt.sink.is_enabled() {
        return;
    }
    let end = rt.sink.wall_now();
    let mut span = lock(&rt.spans[unit.stage]);
    match &mut *span {
        Some((s, e)) => {
            *s = s.min(unit.start);
            *e = e.max(end);
        }
        None => *span = Some((unit.start, end)),
    }
}
