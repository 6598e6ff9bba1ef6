//! The CHOPPER reproduction's benchmark: four workloads measured on both
//! clocks — host wall time of this process and virtual time of the
//! simulated cluster — with output checks, mechanism guards and a
//! separate traced iteration for per-layer metrics.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload tune --seed 0 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! print every metric by name with its unit and the run's metadata.

pub mod layers;
pub mod suite;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use suite::{prepare, Answer, Kind, Outcome, Probe, Reference, Size};

/// Set-ups timed per block; a block runs before the first iteration and
/// after each one, and `setup_s` is the median over all blocks.
pub const SETUP_BLOCK: usize = 16;

/// Iterations after which `peak_rss_mb` is read (or the end of the run,
/// if it is shorter).
pub const RSS_ITERATIONS: usize = 5;

/// The checkout root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Added to every generator's default seed; 0 reproduces the
    /// committed figures.
    pub seed: u64,
    /// Measured seconds (at least one iteration always runs).
    pub seconds: f64,
    /// Report per-layer metrics from a separate traced iteration instead
    /// of the end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

impl Config {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--size
    /// paper|tiny]`.
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut kind = None;
        let (mut seed, mut seconds, mut trace, mut size) = (0u64, 10.0, false, Size::Paper);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(value).ok_or_else(|| {
                        format!("unknown workload '{value}' (tune|iterative|skewed|governed)")
                    })?)
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad --seconds '{value}'"))?
                }
                "--trace" => {
                    trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace '{value}' (expected 0|1)")),
                    }
                }
                "--size" => {
                    size = match value {
                        "paper" => Size::Paper,
                        "tiny" => Size::Tiny,
                        _ => return Err(format!("bad --size '{value}' (expected paper|tiny)")),
                    }
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Config {
            kind: kind.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            size,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one invocation reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Outputs checked, guards held and nothing failed.
    pub correct: bool,
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations that panicked or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Run metadata: `(key, value)`.
    pub meta: Vec<(&'static str, String)>,
    /// Human-readable check results, failures first.
    pub notes: Vec<String>,
}

impl Report {
    /// `failed / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The metadata as one JSON object.
    pub fn meta_json(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The human-readable lines printed before the result line.
    pub fn render(&self) -> String {
        let mut s = format!("meta {}\n", self.meta_json());
        for note in &self.notes {
            s.push_str(&format!("check {note}\n"));
        }
        s.push_str(&format!("{:<28} {:>18}  unit\n", "metric", "value"));
        for m in &self.metrics {
            s.push_str(&format!("{:<28} {:>18.6}  {}\n", m.name, m.value, m.unit));
        }
        // `fail_ratio` travels in the result line as `failed / attempted`;
        // as a metric it would read 0 on every healthy run.
        s.push_str(&format!(
            "{:<28} {:>18.6}  ratio ({} failed of {} attempted)\n",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted
        ));
        s
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's git commit, or `unknown` when the checkout is not a
/// git repository of its own.
fn git_commit() -> String {
    if !repo_root().join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Checks the default-seed figures against the committed results: the
/// SQL row of `results/fig7.txt` and `total_adaptive` of
/// `results/BENCH_adaptive.json`. Reads only.
fn cross_check(kind: Kind, out: &Outcome, probe: &Probe) -> Result<String, String> {
    let results = repo_root().join("results");
    let read = |file: &str| {
        std::fs::read_to_string(results.join(file)).map_err(|e| format!("read results/{file}: {e}"))
    };
    match kind {
        Kind::Tune => {
            let text = read("fig7.txt")?;
            let row: Vec<&str> = text
                .lines()
                .map(str::split_whitespace)
                .map(Iterator::collect)
                .find(|cells: &Vec<&str>| cells.first() == Some(&"SQL"))
                .ok_or("results/fig7.txt has no SQL row")?;
            let vanilla = out
                .inline_reference
                .as_ref()
                .ok_or("tune has no vanilla run")?
                .job_s;
            let (vanilla, tuned) = (format!("{vanilla:.1}s"), format!("{:.1}s", out.job_s));
            if row.get(1) == Some(&vanilla.as_str()) && row.get(2) == Some(&tuned.as_str()) {
                Ok(format!(
                    "fig7 SQL row matches: vanilla {vanilla}, tuned {tuned}"
                ))
            } else {
                Err(format!(
                    "fig7 SQL row {row:?} disagrees with vanilla {vanilla}, tuned {tuned}"
                ))
            }
        }
        Kind::Skewed => {
            // Instance 0 of seed 0 is the committed `fig_adaptive` input.
            let committed = bench::adaptive::AdaptiveReport::parse(&read("BENCH_adaptive.json")?)?;
            let first = *probe
                .run_stats()
                .clocks
                .first()
                .ok_or("no skewed run recorded")?;
            let print = match &out.answer {
                Answer::Fingerprints(p) => p.first().copied(),
                _ => None,
            };
            if committed.total_adaptive == first && print == Some(committed.fingerprint) {
                Ok(format!(
                    "BENCH_adaptive.json matches instance 0: adaptive {first}s, tables {:016x}",
                    committed.fingerprint
                ))
            } else {
                Err(format!(
                    "BENCH_adaptive.json total_adaptive {}s / fingerprint {:016x} disagree with \
                     instance 0: {first}s / {print:016x?}",
                    committed.total_adaptive, committed.fingerprint
                ))
            }
        }
        Kind::Iterative | Kind::Governed => Ok("no committed figure to cross-check".to_string()),
    }
}

/// The mechanism guard: the workload exercised the layer it was chosen
/// for (and `memman` spilled only on `governed`).
fn guard(kind: Kind, out: &Outcome, probe: &Probe) -> Result<(), String> {
    let stats = probe.run_stats();
    let (spills, rereads) = (stats.mem.spills, stats.mem.rereads);
    if kind != Kind::Governed && spills > 0 {
        return Err(format!("{spills} spills on an ungoverned workload"));
    }
    let replan = probe.replan_stats();
    match kind {
        Kind::Tune => {
            let t = out.tuning.ok_or("tune reported no tuning statistics")?;
            if t.grid_runs != t.expected_runs {
                return Err(format!(
                    "test grid ran {} of {} runs",
                    t.grid_runs, t.expected_runs
                ));
            }
            if t.stages_retuned == 0 {
                return Err("the plan retuned no stage".to_string());
            }
        }
        Kind::Iterative => {
            let repeated = stats.repeated_jobs;
            if repeated == 0 || (replan.calls as usize) < repeated {
                return Err(format!(
                    "re-planner called {} times for {repeated} repeated jobs",
                    replan.calls
                ));
            }
        }
        Kind::Skewed => {
            if stats.split_tasks == 0 {
                return Err("no hot partition was split".to_string());
            }
            if replan.adopted == 0 {
                return Err("the re-planner adopted no plan".to_string());
            }
        }
        Kind::Governed => {
            if spills == 0 || rereads == 0 {
                return Err(format!(
                    "{spills} spills and {rereads} rereads under the bound"
                ));
            }
        }
    }
    Ok(())
}

/// Runs one benchmark invocation. `trace_out`, when given, receives the
/// traced iteration's Chrome trace.
pub fn run(cfg: &Config, trace_out: Option<&Path>) -> Report {
    let run_id = format!("{}-seed{}", cfg.kind.name(), cfg.seed);
    let mut notes = Vec::new();
    let mut failed = 0u64;

    // ---- set-up: configs, cluster spec, engine options, Context + pool ----
    // Set-up takes tens of microseconds, and its cost drifts between
    // modes over a run's lifetime (thread placement of the new pool), so
    // one block of set-ups runs before the first iteration and one after
    // every iteration; `setup_s` is the median over all of them.
    let time_setups = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_BLOCK {
            let t = Instant::now();
            let built = prepare(cfg.kind, cfg.size, cfg.seed);
            setups.push(t.elapsed().as_secs_f64());
            drop(built);
        }
    };
    let mut setups = Vec::new();
    time_setups(&mut setups);
    let (w, ctx) = prepare(cfg.kind, cfg.size, cfg.seed);
    drop(ctx);

    // ---- measured iterations, tracing off -------------------------------
    // Each iteration's guard and (at seed 0) cross-check run right after
    // it; its answer and job time are checked once the reference exists.
    let mut walls = Vec::new();
    let mut peak_rss = None;
    let mut done: Vec<(Answer, f64, Option<Reference>)> = Vec::new();
    let clock = Instant::now();
    loop {
        let probe = Probe::new(false, &run_id);
        let t = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| w.iterate(&probe)));
        let wall = t.elapsed().as_secs_f64();
        // One job set's peak depends on thread timing; the first few
        // iterations settle it. Reading later would tie the figure to how
        // many iterations the host fits in the run.
        let index = walls.len() + failed as usize;
        if index < RSS_ITERATIONS {
            peak_rss = peak_rss_mb();
        }
        let verdict = match res {
            Ok(out) => {
                walls.push(wall);
                let mut verdict = guard(cfg.kind, &out, &probe);
                if verdict.is_ok() && index == 0 && cfg.seed == 0 && cfg.size == Size::Paper {
                    verdict = cross_check(cfg.kind, &out, &probe)
                        .map(|note| notes.push(format!("ok {note}")));
                }
                // A failed iteration is counted once: skip its answer check.
                if verdict.is_ok() {
                    done.push((out.answer, out.job_s, out.inline_reference));
                }
                verdict
            }
            Err(_) => Err("panicked".to_string()),
        };
        if let Err(e) = verdict {
            failed += 1;
            notes.push(format!("FAIL iteration {index}: {e}"));
        }
        time_setups(&mut setups);
        if clock.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let attempted = walls.len() as u64 + failed;
    let setup_s = median(&mut setups);
    let wall_s = median(&mut walls.clone());

    // ---- answers against the reference, job times repeat exactly ------------
    let shared_reference = match catch_unwind(AssertUnwindSafe(|| w.reference())) {
        Ok(r) => r,
        Err(_) => {
            notes.push("FAIL the reference run panicked".to_string());
            failed = attempted;
            None
        }
    };
    let mut job_s = None;
    let mut speedup = None;
    for (answer, job, inline) in &done {
        let Some(reference) = inline.as_ref().or(shared_reference.as_ref()) else {
            continue;
        };
        let first = *job_s.get_or_insert(*job);
        speedup.get_or_insert(reference.job_s / job);
        let verdict = answer.check(&reference.answer).and_then(|()| {
            if first.to_bits() == job.to_bits() {
                Ok(())
            } else {
                Err(format!(
                    "job_s {job} differs from the first iteration's {first}"
                ))
            }
        });
        if let Err(e) = verdict {
            failed += 1;
            notes.push(format!("FAIL an iteration's output: {e}"));
        }
    }
    failed = failed.min(attempted);
    if failed == 0 {
        notes.push(format!(
            "ok {attempted} iterations: answers match the reference, mechanism guard holds"
        ));
    }

    let mut meta = vec![
        ("workload", cfg.kind.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("size", format!("{:?}", cfg.size).to_lowercase()),
        (
            "host_cores",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("workers", w.workers.to_string()),
        ("grid_parallelism", w.grid_parallelism.to_string()),
        ("git_commit", git_commit()),
        ("iterations", walls.len().to_string()),
        (
            "wall_min_max_s",
            format!(
                "{:.4}/{:.4}",
                walls.iter().copied().fold(f64::INFINITY, f64::min),
                walls.iter().copied().fold(0.0, f64::max)
            ),
        ),
    ];

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    if !cfg.trace {
        put("wall_s", wall_s, "s");
        put("job_s", job_s.unwrap_or(0.0), "s");
        put("speedup", speedup.unwrap_or(0.0), "x");
        put("setup_s", setup_s, "s");
        put("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB");
    } else {
        // ---- the separate traced iteration ---------------------------------
        let probe = Probe::new(true, &run_id);
        let start = probe.sink.wall_now();
        let traced = catch_unwind(AssertUnwindSafe(|| {
            let out = w.iterate(&probe);
            let export_start = probe.sink.wall_now();
            std::hint::black_box(probe.sink.chrome_json());
            let export_s = probe.record("export", export_start) - export_start;
            (out, export_s)
        }));
        let traced_wall_s = probe.record("iteration", start) - start;
        match traced {
            Ok((out, export_s)) => {
                match layers::per_layer(&out, &probe, wall_s, traced_wall_s, export_s) {
                    Ok(m) => {
                        for (name, value, unit) in m {
                            put(&name, value, unit);
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        notes.push(format!("FAIL traced iteration: {e}"));
                    }
                }
                if let Err(e) = guard(cfg.kind, &out, &probe) {
                    failed += 1;
                    notes.push(format!("FAIL traced iteration: {e}"));
                }
            }
            Err(_) => {
                failed += 1;
                notes.push("FAIL the traced iteration panicked".to_string());
            }
        }
        meta.push(("trace_events", probe.sink.events().len().to_string()));
        if let Some(dir) = trace_out {
            let written = std::fs::create_dir_all(dir).and_then(|()| {
                std::fs::write(
                    dir.join(format!("{run_id}.trace.json")),
                    probe.sink.chrome_json(),
                )
            });
            if let Err(e) = written {
                notes.push(format!("FAIL writing the trace: {e}"));
                failed += 1;
            }
        }
    }
    let attempted = attempted + u64::from(cfg.trace);
    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    if !all_finite {
        notes.push("FAIL a metric is not finite".to_string());
    }
    notes.sort_by_key(|n| !n.starts_with("FAIL"));
    Report {
        correct: failed == 0 && all_finite && job_s.is_some(),
        attempted,
        failed: failed.min(attempted),
        metrics,
        meta,
        notes,
    }
}
