//! The virtual-time cluster simulator.
//!
//! Tasks are placed with Spark-like FIFO slot scheduling: each node exposes
//! `cores` slots, tasks are assigned in submission order to the slot that
//! frees earliest, with a bounded *locality wait* that lets a task hold out
//! briefly for a node holding its input (Spark's delay scheduling), and hard
//! pins for CHOPPER's co-partition-aware placement. A stage is a barrier:
//! the virtual clock only advances past a stage once its slowest task ends —
//! exactly the straggler semantics that make data skew expensive in the
//! paper.

mod rack;

use crate::spec::{ClusterSpec, NodeId};
use crate::task::TaskSpec;
use crate::trace::UtilTrace;

/// Where and when one task ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTiming {
    /// Node the task executed on.
    pub node: NodeId,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds).
    pub end: f64,
}

impl TaskTiming {
    /// Task duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Timing of one simulated stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage start (virtual seconds).
    pub start: f64,
    /// Stage end — when the last task finished (the barrier).
    pub end: f64,
    /// Per-task placements and times, in submission order.
    pub tasks: Vec<TaskTiming>,
}

impl StageTiming {
    /// Stage wall time in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Duration of the slowest task.
    pub fn max_task(&self) -> f64 {
        self.tasks
            .iter()
            .map(TaskTiming::duration)
            .fold(0.0, f64::max)
    }

    /// Mean task duration (0 for an empty stage).
    pub fn mean_task(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.tasks.iter().map(TaskTiming::duration).sum::<f64>() / self.tasks.len() as f64
        }
    }
}

/// Aggregate data-movement counters across the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoStats {
    /// Bytes fetched over the network (remote shuffle reads).
    pub remote_bytes: u64,
    /// Bytes read from node-local storage (input blocks + local shuffle).
    pub local_read_bytes: u64,
    /// Bytes written to node-local storage.
    pub write_bytes: u64,
}

/// A deterministic virtual-time simulation of a [`ClusterSpec`].
pub struct Simulation {
    spec: ClusterSpec,
    clock: f64,
    locality_wait: f64,
    slowdown: Vec<f64>,
    failed: Vec<bool>,
    resident_bytes: Vec<u64>,
    trace: UtilTrace,
    io: IoStats,
    stages_run: usize,
    speculation: Option<f64>,
    net_stats: netsim::NetworkStats,
    events: u64,
}

impl Simulation {
    /// Creates a simulation with 10-second trace buckets (the paper's
    /// figures sample at tens-of-seconds granularity).
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_trace_bucket(spec, 10.0)
    }

    /// Creates a simulation with an explicit trace bucket width.
    pub fn with_trace_bucket(spec: ClusterSpec, bucket_width: f64) -> Self {
        let n = spec.num_nodes();
        let trace = UtilTrace::new(bucket_width, spec.total_cores(), spec.total_memory());
        Simulation {
            spec,
            clock: 0.0,
            locality_wait: 0.1,
            slowdown: vec![1.0; n],
            failed: vec![false; n],
            resident_bytes: vec![0; n],
            trace,
            io: IoStats::default(),
            stages_run: 0,
            speculation: None,
            net_stats: netsim::NetworkStats::default(),
            events: 0,
        }
    }

    /// Enables Spark-style speculative execution: a task that runs longer
    /// than `multiplier` × the stage's median task duration gets a backup
    /// copy launched on another node once that threshold passes; the
    /// earlier finisher wins. This is the *reactive* straggler mitigation
    /// that CHOPPER's proactive partitioning competes with (cf. the
    /// paper's SkewTune discussion in Related Work).
    ///
    /// The backup's own core occupancy is not re-fed into the schedule —
    /// a deliberate approximation: speculation fires in the stage's tail,
    /// when cores are draining.
    pub fn enable_speculation(&mut self, multiplier: f64) {
        assert!(multiplier > 1.0, "speculation multiplier must exceed 1");
        self.speculation = Some(multiplier);
    }

    /// Disables speculative execution.
    pub fn disable_speculation(&mut self) {
        self.speculation = None;
    }

    /// The cluster description.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Current virtual time in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the clock by `dt` seconds (driver-side work between stages).
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "cannot rewind the clock");
        self.clock += dt;
    }

    /// Injects a persistent slow-down on a node (e.g. 2.0 = half speed).
    pub fn set_slowdown(&mut self, node: NodeId, factor: f64) {
        assert!(factor >= 1.0, "slow-down factor must be >= 1");
        self.slowdown[node] = factor;
    }

    /// Marks a node failed: no further tasks are placed on it.
    pub fn fail_node(&mut self, node: NodeId) {
        self.failed[node] = true;
        assert!(
            self.failed.iter().any(|f| !f),
            "cannot fail the last remaining node"
        );
    }

    /// Registers `bytes` of cached RDD data resident on `node` (counted in
    /// the memory-utilization trace until released).
    pub fn add_resident(&mut self, node: NodeId, bytes: u64) {
        self.resident_bytes[node] += bytes;
    }

    /// Releases previously registered resident bytes.
    pub fn release_resident(&mut self, node: NodeId, bytes: u64) {
        self.resident_bytes[node] = self.resident_bytes[node].saturating_sub(bytes);
    }

    /// Currently registered resident bytes per node.
    pub fn resident_bytes(&self) -> &[u64] {
        &self.resident_bytes
    }

    /// Charges a driver-coordinated disk transfer of `per_node_bytes`
    /// outside any stage (the engine's cache-spill path): the transfers
    /// run in parallel across nodes, the clock advances by the slowest
    /// one, and each node's bytes feed the disk-transaction trace that
    /// drives Fig. 14.
    pub fn charge_disk_io(&mut self, per_node_bytes: &[u64], write: bool) {
        assert_eq!(per_node_bytes.len(), self.spec.num_nodes());
        let start = self.clock;
        let mut end = start;
        for (n, &bytes) in per_node_bytes.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            let node_end = start + bytes as f64 / self.spec.nodes[n].disk_bandwidth;
            end = end.max(node_end);
            let txns = (bytes as f64 / self.spec.io_transaction_bytes as f64).ceil();
            self.trace.record_transactions(start, node_end, txns);
            if write {
                self.io.write_bytes += bytes;
            } else {
                self.io.local_read_bytes += bytes;
            }
        }
        self.clock = end;
    }

    /// Cumulative data-movement counters.
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Cumulative flow-network counters (all zero in flat mode, which
    /// never builds a flow network).
    pub fn network_stats(&self) -> netsim::NetworkStats {
        self.net_stats
    }

    /// Total discrete events processed across rack-mode stages (stage
    /// dispatch/completion events plus flow completions) — the quantity
    /// the perfgate throughput floor is measured over.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The utilization trace accumulated so far.
    pub fn trace(&self) -> &UtilTrace {
        &self.trace
    }

    /// Runs one stage: places every task, advances the clock to the barrier,
    /// and returns the schedule.
    ///
    /// # Panics
    /// Panics if `tasks` is empty or every node has failed.
    pub fn run_stage(&mut self, tasks: &[TaskSpec]) -> StageTiming {
        assert!(!tasks.is_empty(), "a stage needs at least one task");
        if !self.spec.topology.is_flat() {
            // Rack topologies need the event-driven engine: link
            // contention makes durations placement-dependent. The flat
            // path below stays untouched — and bit-identical.
            return self.run_stage_rack(tasks);
        }
        let stage_start = self.clock;

        // Free-at times for every core slot, grouped by node. All cores are
        // free at the barrier that starts the stage.
        let mut cores: Vec<Vec<f64>> = self
            .spec
            .nodes
            .iter()
            .map(|n| vec![stage_start; n.cores])
            .collect();

        let mut timings = Vec::with_capacity(tasks.len());
        let mut stage_end = stage_start;
        let mut assigned = vec![0usize; self.spec.num_nodes()];
        // Each stage starts its round-robin at a different node: executor
        // resource offers arrive in arbitrary per-stage order in Spark, so
        // two stages' partition placements must not align by accident.
        let salt = self.stages_run % self.spec.num_nodes();
        self.stages_run += 1;

        for (idx, task) in tasks.iter().enumerate() {
            let dispatched = stage_start + idx as f64 * self.spec.dispatch_interval;
            let node = self.choose_node(task, &cores, &assigned, dispatched, salt);
            assigned[node] += 1;
            // Earliest core on the chosen node.
            let (slot, &free) = cores[node]
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN times"))
                .expect("nodes have at least one core");
            // The driver ships task descriptors serially; task `idx` cannot
            // launch before its dispatch slot.
            let start = free.max(dispatched);
            let (duration, net_time, remote_bytes, local_bytes) = self.task_duration(task, node);
            let end = start + duration;
            cores[node][slot] = end;
            stage_end = stage_end.max(end);

            // Tracing: CPU + task memory over the span, packets over the
            // fetch window, disk transactions over the whole task.
            self.trace.record_task(start, end, task.memory_bytes);
            if remote_bytes > 0 {
                let packets = (remote_bytes as f64 / self.spec.mtu as f64).ceil();
                // Received and transmitted both count in Fig. 13.
                self.trace
                    .record_packets(start, start + net_time.max(1e-9), 2.0 * packets);
            }
            let io_bytes = local_bytes + task.write_bytes;
            if io_bytes > 0 {
                let txns = (io_bytes as f64 / self.spec.io_transaction_bytes as f64).ceil();
                self.trace.record_transactions(start, end, txns);
            }

            self.io.remote_bytes += remote_bytes;
            self.io.local_read_bytes += local_bytes;
            self.io.write_bytes += task.write_bytes;

            timings.push(TaskTiming { node, start, end });
        }

        // Speculative execution: re-run flagged stragglers elsewhere.
        if let Some(multiplier) = self.speculation {
            stage_end = self.speculate(tasks, &mut timings, &cores, multiplier, stage_end);
        }

        // Resident (cached) memory is charged for the stage's whole span.
        let resident: u64 = self.resident_bytes.iter().sum();
        if resident > 0 && stage_end > stage_start {
            self.trace.record_memory(stage_start, stage_end, resident);
        }

        self.clock = stage_end;
        StageTiming {
            start: stage_start,
            end: stage_end,
            tasks: timings,
        }
    }

    /// Launches backup copies for tasks still running `multiplier` × the
    /// median duration after their start, and returns the new stage end.
    fn speculate(
        &mut self,
        tasks: &[TaskSpec],
        timings: &mut [TaskTiming],
        cores: &[Vec<f64>],
        multiplier: f64,
        stage_end: f64,
    ) -> f64 {
        if timings.len() < 2 {
            return stage_end;
        }
        let mut durations: Vec<f64> = timings.iter().map(TaskTiming::duration).collect();
        durations.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mid = durations.len() / 2;
        let median = if durations.len().is_multiple_of(2) {
            0.5 * (durations[mid - 1] + durations[mid])
        } else {
            durations[mid]
        };
        let threshold = multiplier * median;
        if threshold <= 0.0 {
            return stage_end;
        }

        for (task, timing) in tasks.iter().zip(timings.iter_mut()) {
            if timing.duration() <= threshold {
                continue;
            }
            // The driver notices the straggler once it has exceeded the
            // threshold; the backup starts on the earliest core of another
            // live node that is free by then.
            let flagged_at = timing.start + threshold;
            let mut best: Option<(f64, usize)> = None;
            for (node, node_cores) in cores.iter().enumerate() {
                if node == timing.node || self.failed[node] {
                    continue;
                }
                let free = node_cores.iter().copied().fold(f64::INFINITY, f64::min);
                let start = free.max(flagged_at);
                if best.is_none_or(|(bs, _)| start < bs) {
                    best = Some((start, node));
                }
            }
            let Some((backup_start, backup_node)) = best else {
                continue;
            };
            let (backup_dur, _, _, _) = self.task_duration(task, backup_node);
            let backup_end = backup_start + backup_dur;
            if backup_end < timing.end {
                // The backup wins: account for its execution and cut the
                // task's effective completion.
                self.trace
                    .record_task(backup_start, backup_end, task.memory_bytes);
                *timing = TaskTiming {
                    node: backup_node,
                    start: timing.start,
                    end: backup_end,
                };
            }
        }
        timings.iter().map(|t| t.end).fold(0.0, f64::max)
    }

    /// Spark-like placement: earliest-free node, with a bounded wait for a
    /// preferred (data-local) node, and hard pins taking precedence. Among
    /// nodes that could start the task immediately (free core at or before
    /// its dispatch time), the least-loaded one wins — Spark's round-robin
    /// resource offers — instead of always the lowest-numbered node.
    fn choose_node(
        &self,
        task: &TaskSpec,
        cores: &[Vec<f64>],
        assigned: &[usize],
        dispatched: f64,
        salt: usize,
    ) -> NodeId {
        if let Some(pin) = task.pinned_node {
            if !self.failed[pin] {
                return pin;
            }
        }

        let earliest =
            |node: NodeId| -> f64 { cores[node].iter().copied().fold(f64::INFINITY, f64::min) };

        let mut best: Option<(f64, NodeId)> = None;
        let mut best_ready: Option<(f64, NodeId)> = None;
        #[allow(clippy::needless_range_loop)] // indexes three parallel arrays
        for node in 0..self.spec.num_nodes() {
            if self.failed[node] {
                continue;
            }
            let t = earliest(node);
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, node));
            }
            if t <= dispatched {
                // Ready now: balance by fraction of this stage's tasks
                // already assigned per core slot; ties rotate with the
                // per-stage salt instead of always favouring node 0.
                let n = self.spec.num_nodes();
                let rotated = (node + n - salt) % n;
                let load = assigned[node] as f64 / self.spec.nodes[node].cores as f64;
                let better = match best_ready {
                    None => true,
                    Some((bl, bn)) => {
                        let brot = (bn + n - salt) % n;
                        load < bl - 1e-12 || (load < bl + 1e-12 && rotated < brot)
                    }
                };
                if better {
                    best_ready = Some((load, node));
                }
            }
        }
        let (best_t, best_node) = match (best_ready, best) {
            (Some((_, n)), _) => (dispatched, n),
            (None, Some(b)) => b,
            (None, None) => unreachable!("at least one live node"),
        };

        // Delay scheduling: take a preferred node if it frees soon enough.
        let mut local_best: Option<(f64, NodeId)> = None;
        for &node in &task.preferred_nodes {
            if node < self.spec.num_nodes() && !self.failed[node] {
                let t = earliest(node);
                if local_best.is_none_or(|(bt, _)| t < bt) {
                    local_best = Some((t, node));
                }
            }
        }
        if let Some((lt, ln)) = local_best {
            if lt <= best_t + self.locality_wait {
                return ln;
            }
        }
        best_node
    }

    /// Returns `(total duration, network time, remote bytes, local read
    /// bytes)` of `task` when run on `node`.
    fn task_duration(&self, task: &TaskSpec, node: NodeId) -> (f64, f64, u64, u64) {
        let n = &self.spec.nodes[node];
        let speed = n.speed / self.slowdown[node];
        let compute = task.compute_cost / speed;

        // Split fetches into local (disk) and remote (network) portions.
        let mut remote_total: u64 = 0;
        let mut per_src_max = 0.0_f64;
        let mut remote_srcs = 0usize;
        let mut local_fetch: u64 = 0;
        for &(src, bytes) in &task.fetches {
            if src == node {
                local_fetch += bytes;
            } else {
                remote_total += bytes;
                remote_srcs += 1;
                let src_bw = self.spec.nodes[src].net_bandwidth;
                per_src_max = per_src_max.max(bytes as f64 / src_bw);
            }
        }
        // Receiver NIC is usually the bottleneck; a single hot sender can
        // also bound the transfer. Fetches from distinct sources overlap,
        // and so do their round trips: the fetcher keeps
        // `max_concurrent_fetches` requests in flight, so latency is paid
        // once per wave of that many sources, not once per source.
        let net_time = if remote_total > 0 {
            let waves = remote_srcs.div_ceil(self.spec.max_concurrent_fetches.max(1));
            (remote_total as f64 / n.net_bandwidth).max(per_src_max) + waves as f64 * n.net_latency
        } else {
            0.0
        };

        // Cold input reads pay disk bandwidth; local shuffle fetches are
        // freshly written map outputs served from the page cache.
        let local_bytes = task.local_read_bytes + local_fetch;
        let disk_time = (task.local_read_bytes + task.write_bytes) as f64 / n.disk_bandwidth
            + local_fetch as f64 / self.spec.cache_bandwidth;
        let chunk_time = task.fetch_chunks as f64 * self.spec.fetch_chunk_overhead;

        let total = self.spec.task_launch_overhead + compute + net_time + disk_time + chunk_time;
        (total, net_time, remote_total, local_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{paper_cluster, uniform_cluster};

    fn two_node_cluster() -> ClusterSpec {
        uniform_cluster(2, 2, 1.0) // 2 nodes x 2 cores, speed 1.0
    }

    #[test]
    fn single_task_duration_includes_overhead() {
        let spec = two_node_cluster();
        let overhead = spec.task_launch_overhead;
        let mut sim = Simulation::new(spec);
        let st = sim.run_stage(&[TaskSpec::compute(10.0)]);
        assert!((st.duration() - (10.0 + overhead)).abs() < 1e-9);
        assert!((sim.clock() - st.end).abs() < 1e-12);
    }

    #[test]
    fn tasks_fill_all_cores_before_queueing() {
        let mut sim = Simulation::new(two_node_cluster());
        // 4 cores total; 4 equal tasks should run in one wave. The last
        // task starts 3 dispatch intervals after the stage opens.
        let tasks = vec![TaskSpec::compute(5.0); 4];
        let st = sim.run_stage(&tasks);
        let overhead = sim.spec().task_launch_overhead;
        let dispatch = sim.spec().dispatch_interval;
        assert!((st.duration() - (5.0 + overhead + 3.0 * dispatch)).abs() < 1e-9);
        // A fifth task forces a second wave.
        let mut sim = Simulation::new(two_node_cluster());
        let tasks = vec![TaskSpec::compute(5.0); 5];
        let st = sim.run_stage(&tasks);
        assert!((st.duration() - 2.0 * (5.0 + overhead)).abs() < 2e-2);
    }

    #[test]
    fn short_tasks_spread_across_nodes() {
        // With dispatch pacing and short tasks, placement must still
        // round-robin across nodes rather than piling onto node 0.
        let mut sim = Simulation::new(two_node_cluster());
        let tasks = vec![TaskSpec::compute(0.001); 40];
        let st = sim.run_stage(&tasks);
        let on_node0 = st.tasks.iter().filter(|t| t.node == 0).count();
        assert!(
            (15..=25).contains(&on_node0),
            "expected balanced spread, node0 got {on_node0}/40"
        );
    }

    #[test]
    fn stage_barrier_waits_for_straggler() {
        let mut sim = Simulation::new(two_node_cluster());
        let mut tasks = vec![TaskSpec::compute(1.0); 3];
        tasks.push(TaskSpec::compute(50.0)); // straggler
        let st = sim.run_stage(&tasks);
        assert!(st.duration() > 50.0);
        assert!(st.max_task() > 25.0 * st.mean_task() / 13.0); // clearly skewed
    }

    #[test]
    fn faster_nodes_finish_sooner() {
        let mut spec = uniform_cluster(2, 1, 1.0);
        spec.nodes[1].speed = 2.0;
        let mut sim = Simulation::new(spec);
        let st = sim.run_stage(&[
            TaskSpec::compute(10.0).pin(0),
            TaskSpec::compute(10.0).pin(1),
        ]);
        assert!(st.tasks[0].duration() > st.tasks[1].duration() * 1.9);
    }

    #[test]
    fn pinning_overrides_load_balance() {
        let mut sim = Simulation::new(two_node_cluster());
        let tasks = vec![
            TaskSpec::compute(1.0).pin(1),
            TaskSpec::compute(1.0).pin(1),
            TaskSpec::compute(1.0).pin(1),
        ];
        let st = sim.run_stage(&tasks);
        assert!(st.tasks.iter().all(|t| t.node == 1));
    }

    #[test]
    fn locality_preference_is_honored_when_cheap() {
        let mut sim = Simulation::new(two_node_cluster());
        let st = sim.run_stage(&[TaskSpec::compute(1.0).prefer(1)]);
        assert_eq!(st.tasks[0].node, 1);
    }

    #[test]
    fn remote_fetch_costs_network_time() {
        let spec = two_node_cluster();
        let bw = spec.nodes[0].net_bandwidth;
        let mut sim = Simulation::new(spec);
        let bytes = (bw * 2.0) as u64; // two seconds of transfer
        let t = TaskSpec {
            compute_cost: 1.0,
            fetches: vec![(1, bytes)],
            ..TaskSpec::default()
        };
        let st = sim.run_stage(&[t.clone().pin(0)]);
        assert!(
            st.duration() > 3.0,
            "1s compute + ~2s network, got {}",
            st.duration()
        );
        assert_eq!(sim.io_stats().remote_bytes, bytes);

        // The same fetch from the task's own node is a (much faster) disk read.
        let mut sim2 = Simulation::new(two_node_cluster());
        let st2 = sim2.run_stage(&[t.pin(1)]);
        assert!(st2.duration() < st.duration());
        assert_eq!(sim2.io_stats().remote_bytes, 0);
        assert_eq!(sim2.io_stats().local_read_bytes, bytes);
    }

    #[test]
    fn fetch_latency_is_charged_per_wave_not_per_source() {
        // A reduce task fetching from many map outputs keeps
        // `max_concurrent_fetches` requests in flight: 23 sources at a
        // concurrency of 5 cost ceil(23/5) = 5 round trips, not 23.
        let spec = uniform_cluster(24, 2, 1.0);
        let latency = spec.nodes[0].net_latency;
        let bw = spec.nodes[0].net_bandwidth;
        let overhead = spec.task_launch_overhead;
        let concurrency = spec.max_concurrent_fetches;
        assert_eq!(concurrency, 5);
        let srcs = 23usize;
        let per_src: u64 = 1_000_000;
        let t = TaskSpec {
            fetches: (1..=srcs).map(|s| (s, per_src)).collect(),
            ..TaskSpec::default()
        };
        let mut sim = Simulation::new(spec);
        let st = sim.run_stage(&[t.pin(0)]);
        let waves = srcs.div_ceil(concurrency); // 5
        let expect = overhead + (srcs as u64 * per_src) as f64 / bw + waves as f64 * latency;
        assert!(
            (st.duration() - expect).abs() < 1e-9,
            "got {}, want {expect} ({waves} latency waves)",
            st.duration()
        );
        // The old per-source charge would be visibly larger.
        let old = overhead + (srcs as u64 * per_src) as f64 / bw + srcs as f64 * latency;
        assert!(st.duration() < old - 10.0 * latency);
    }

    #[test]
    fn failed_node_receives_no_tasks() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.fail_node(0);
        let st = sim.run_stage(&vec![TaskSpec::compute(1.0); 6]);
        assert!(st.tasks.iter().all(|t| t.node == 1));
    }

    #[test]
    fn pinned_task_on_failed_node_falls_back() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.fail_node(1);
        let st = sim.run_stage(&[TaskSpec::compute(1.0).pin(1)]);
        assert_eq!(st.tasks[0].node, 0);
    }

    #[test]
    #[should_panic(expected = "last remaining node")]
    fn cannot_fail_every_node() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.fail_node(0);
        sim.fail_node(1);
    }

    #[test]
    fn slowdown_stretches_tasks() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.set_slowdown(0, 4.0);
        let st = sim.run_stage(&[TaskSpec::compute(8.0).pin(0)]);
        assert!(st.duration() > 32.0, "8 units at quarter speed");
    }

    #[test]
    fn clock_accumulates_across_stages() {
        let mut sim = Simulation::new(two_node_cluster());
        let s1 = sim.run_stage(&[TaskSpec::compute(2.0)]);
        sim.advance(1.0);
        let s2 = sim.run_stage(&[TaskSpec::compute(2.0)]);
        assert!(s2.start >= s1.end + 1.0 - 1e-12);
    }

    #[test]
    fn paper_cluster_heterogeneity_creates_imbalance() {
        // With one task per core, the 2.0 GHz nodes finish later than the
        // 2.3 GHz ones.
        let mut sim = Simulation::new(paper_cluster());
        let tasks = vec![TaskSpec::compute(100.0); 112];
        let st = sim.run_stage(&tasks);
        let slow = st
            .tasks
            .iter()
            .filter(|t| t.node <= 2)
            .map(TaskTiming::duration)
            .fold(0.0, f64::max);
        let fast = st
            .tasks
            .iter()
            .filter(|t| t.node >= 3)
            .map(TaskTiming::duration)
            .fold(0.0, f64::max);
        assert!(slow > fast, "AMD nodes are slower per core");
    }

    #[test]
    fn trace_records_cpu_activity() {
        let mut sim = Simulation::with_trace_bucket(two_node_cluster(), 1.0);
        sim.run_stage(&vec![TaskSpec::compute(2.0); 4]);
        let pts = sim.trace().points();
        assert!(!pts.is_empty());
        assert!(pts[0].cpu_pct > 90.0, "all four cores busy in bucket 0");
    }

    #[test]
    fn resident_memory_shows_in_trace() {
        let mut sim = Simulation::with_trace_bucket(two_node_cluster(), 1.0);
        let total_mem = sim.spec().total_memory();
        sim.add_resident(0, total_mem / 2);
        sim.run_stage(&[TaskSpec::compute(2.0)]);
        let pts = sim.trace().points();
        assert!(pts[0].mem_pct > 45.0, "half the cluster memory is cached");
        sim.release_resident(0, total_mem / 2);
    }

    #[test]
    fn more_tasks_mean_more_overhead() {
        // Same total work split into many tiny tasks takes longer in
        // aggregate because of the per-task launch overhead — the effect
        // behind the "too many partitions" regime of Fig. 3.
        let total_work = 100.0;
        let run = |num_tasks: usize| {
            let mut sim = Simulation::new(uniform_cluster(1, 4, 1.0));
            let tasks = vec![TaskSpec::compute(total_work / num_tasks as f64); num_tasks];
            sim.run_stage(&tasks).duration()
        };
        assert!(run(4000) > run(40));
    }

    #[test]
    fn speculation_rescues_a_slow_node_straggler() {
        // One node is 10x degraded; a task landing there straggles. With
        // speculation, a backup on a healthy node cuts the stage short.
        let run = |speculate: bool| {
            let mut sim = Simulation::new(two_node_cluster());
            sim.set_slowdown(0, 10.0);
            if speculate {
                sim.enable_speculation(1.5);
            }
            // Enough tasks that node 0 receives some.
            let tasks = vec![TaskSpec::compute(10.0); 4];
            sim.run_stage(&tasks).duration()
        };
        let plain = run(false);
        let rescued = run(true);
        // The backup can only start once the straggler is *detected*
        // (threshold × median into its run), so the saving is the tail
        // beyond detection plus the healthy re-run — not the whole task.
        assert!(
            rescued < plain - 5.0,
            "speculation should cut the straggler: {rescued} vs {plain}"
        );
    }

    #[test]
    fn speculation_never_slows_a_balanced_stage() {
        let run = |speculate: bool| {
            let mut sim = Simulation::new(two_node_cluster());
            if speculate {
                sim.enable_speculation(1.5);
            }
            sim.run_stage(&vec![TaskSpec::compute(5.0); 4]).duration()
        };
        assert!(
            (run(true) - run(false)).abs() < 1e-12,
            "no stragglers, no change"
        );
    }

    #[test]
    fn speculation_cannot_help_inherently_big_tasks_much() {
        // A task that is big because its *partition* is big is just as big
        // on the backup node — the paper's argument for fixing partitioning
        // proactively instead of reacting.
        let mut sim = Simulation::new(two_node_cluster());
        sim.enable_speculation(1.5);
        let mut tasks = vec![TaskSpec::compute(1.0); 3];
        tasks.push(TaskSpec::compute(50.0)); // a genuinely fat partition
        let st = sim.run_stage(&tasks);
        assert!(
            st.duration() > 50.0,
            "the fat partition still defines the barrier"
        );
    }

    #[test]
    #[should_panic(expected = "multiplier must exceed 1")]
    fn speculation_rejects_bad_multiplier() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.enable_speculation(1.0);
    }

    #[test]
    fn determinism_identical_runs_identical_schedules() {
        let mk = || {
            let mut sim = Simulation::new(paper_cluster());
            let tasks: Vec<TaskSpec> = (0..300)
                .map(|i| TaskSpec::compute(1.0 + (i % 7) as f64))
                .collect();
            sim.run_stage(&tasks)
        };
        assert_eq!(mk(), mk());
    }
}
