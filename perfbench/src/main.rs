//! End-to-end and per-layer benchmark of the het-mpc library, driven from
//! outside through its public entry points (`registry::run_job`,
//! `Service::submit` / `Service::run_on`) and the public functions of
//! each layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Every workload is a closed loop with one client: the next job (or
//! batch) is submitted only once the previous result is in hand. Timed
//! runs use the parallel pool at the host's width and never attach a
//! trace sink. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the traced pass and reports the per-layer split. The last line of
//! standard output is one JSON object with the result; the process exits
//! non-zero when any job failed or returned a wrong answer.

mod checks;
mod kernels;
mod stats;
mod trace;
mod workloads;

use mpc_exec::{AlgoOutput, ExecError, ExecMode, JobSpec};
use mpc_runtime::{FaultPlan, TraceSink};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Exchange, Split, StampSink};
use workloads::{Route, Scale, UnitRun, Workload};

/// Failure messages printed in full; later ones are only counted.
const SHOWN_FAILURES: u64 = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            scale = Scale::Tiny;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        scale,
    })
}

/// The run's set-ups: the first timed from process start, then one more
/// after every cycle of the measured loop, so their median spans the whole
/// run rather than the few seconds of host noise around its start.
struct SetUps {
    workload: String,
    seed: u64,
    scale: Scale,
    /// Each set-up's time, and the part of it spent in generator calls.
    total: Vec<f64>,
    generating: Vec<f64>,
}

impl SetUps {
    /// Generates the workload's inputs, timed from `started`.
    fn run(&mut self, started: Instant) -> Result<Workload, String> {
        let (workload, generating) = workloads::setup(&self.workload, self.seed, self.scale)?;
        self.total.push(started.elapsed().as_secs_f64());
        self.generating.push(generating.as_secs_f64());
        Ok(workload)
    }

    /// Sets up once more and discards the inputs.
    fn again(&mut self) {
        self.run(Instant::now())
            .expect("a workload that set up once sets up again");
    }
}

/// Jobs attempted and failed over the whole run.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Counts one job, failing it on an error or when its digest differs
    /// from the one its reference-checked run produced.
    fn settle(
        &mut self,
        spec: &JobSpec,
        output: &Result<AlgoOutput, ExecError>,
        want: Option<u128>,
        what: &str,
    ) -> bool {
        let verdict = match (output, want) {
            (Err(e), _) => Err(format!("failed: {e}")),
            (Ok(_), None) => Err("its reference run failed".to_string()),
            (Ok(out), Some(want)) if out.digest() != want => {
                Err(format!("digest differs from the {what}"))
            }
            (Ok(_), Some(_)) => Ok(()),
        };
        self.count(verdict.map_err(|why| format!("{} (seed {}): {why}", spec.name, spec.seed)))
    }

    fn count(&mut self, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failed <= SHOWN_FAILURES {
                    eprintln!("wrong answer: {why}");
                }
                false
            }
        }
    }
}

/// What each job's reference-checked run established, before timing.
struct Expected {
    digest: Option<u128>,
    /// The crash attached to this job (checkpointed workload only).
    plan: Option<FaultPlan>,
}

/// The run's workload with what its jobs must reproduce.
struct Bench {
    workload: Workload,
    expected: Vec<Vec<Expected>>,
    ledger: Ledger,
    /// Time spent checking outputs against references.
    verify: Duration,
    verified: usize,
}

impl Bench {
    /// Runs every job once, alone, fault-free and untimed, and checks its
    /// output against the independent reference. Its digest is what every
    /// later run of the job must reproduce: repetitions, the job inside a
    /// service batch (its solo twin runs on the service's cluster shape),
    /// and the job under a crash.
    fn prepare(workload: Workload) -> Self {
        let mut bench = Bench {
            expected: Vec::new(),
            workload,
            ledger: Ledger::default(),
            verify: Duration::ZERO,
            verified: 0,
        };
        for unit in &bench.workload.units {
            let mut row = Vec::new();
            for spec in unit {
                let config = match bench.workload.route {
                    Route::Service => workloads::service_config(&spec.graph, spec.seed),
                    Route::Solo | Route::Faulted => workloads::solo_config(spec),
                };
                let run = workloads::run_solo(spec, config, None, ExecMode::Parallel, None);
                let output = &run.jobs[0].output;
                let started = Instant::now();
                let verdict = match output {
                    Ok(out) => checks::check(spec, out),
                    Err(e) => Err(format!("{} (seed {}): failed: {e}", spec.name, spec.seed)),
                };
                bench.verify += started.elapsed();
                bench.verified += 1;
                let ok = bench.ledger.count(verdict);
                let plan = (bench.workload.route == Route::Faulted).then(|| {
                    let cluster = &run.cluster;
                    FaultPlan::seeded_single_crash(
                        spec.seed,
                        &cluster.small_ids(),
                        cluster.rounds(),
                    )
                });
                row.push(Expected {
                    digest: output.as_ref().ok().filter(|_| ok).map(AlgoOutput::digest),
                    plan,
                });
            }
            bench.expected.push(row);
        }
        bench
    }

    /// Runs unit `i` once in `mode`, with an optional sink attached.
    fn execute(&self, i: usize, mode: ExecMode, sink: Option<Arc<dyn TraceSink>>) -> UnitRun {
        let unit = &self.workload.units[i];
        let first = &unit[0];
        match self.workload.route {
            Route::Service => {
                let config = workloads::service_config(&first.graph, first.seed);
                workloads::run_service(unit, config, mode, sink)
            }
            Route::Solo => {
                workloads::run_solo(first, workloads::solo_config(first), None, mode, sink)
            }
            Route::Faulted => {
                let plan = self.expected[i][0].plan.as_ref();
                workloads::run_solo(first, workloads::solo_config(first), plan, mode, sink)
            }
        }
    }

    /// Checks every job of a finished unit; returns how many were right.
    fn settle(&mut self, i: usize, run: &UnitRun) -> usize {
        let what = match self.workload.route {
            Route::Solo => "job's reference-checked run",
            Route::Service => "job's solo run",
            Route::Faulted => "job's fault-free run",
        };
        let unit = &self.workload.units[i];
        let mut right = 0;
        for (k, job) in run.jobs.iter().enumerate() {
            let want = self.expected[i][k].digest;
            right += self.ledger.settle(&unit[k], &job.output, want, what) as usize;
        }
        right
    }

    /// One untimed, checked pass over every unit, so timing starts warm.
    fn warm_up(&mut self) {
        for i in 0..self.workload.units.len() {
            let run = self.execute(i, ExecMode::Parallel, None);
            self.settle(i, &run);
        }
    }
}

/// One named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's `(stolen, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor gave to other guests inflates every wall-clock metric.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Jobs a window of consecutive cycles holds at least: enough that its
/// p90 lies between two of its own samples.
const WINDOW_JOBS: usize = 20;

/// One pass of the timed loop over every unit.
#[derive(Default)]
struct Cycle {
    latencies: Vec<f64>,
    busy: Duration,
    right: usize,
}

/// Windows of whole consecutive cycles holding at least [`WINDOW_JOBS`]
/// jobs each; a short run's cycles form one window.
fn windows(cycles: &[Cycle], jobs_per_cycle: usize) -> Vec<&[Cycle]> {
    let per = WINDOW_JOBS.div_ceil(jobs_per_cycle.max(1));
    let full: Vec<&[Cycle]> = cycles.chunks_exact(per).collect();
    if full.is_empty() {
        vec![cycles]
    } else {
        full
    }
}

/// The timed closed loop: whole cycles over the units until `seconds`
/// have passed. Reports the end-to-end metrics.
///
/// Throughput and latency percentiles are taken per window of
/// consecutive cycles and reported as their median over the windows, so a
/// burst of host CPU steal that slows a few windows does not move them.
fn timed(bench: &mut Bench, seconds: f64, setups: &mut SetUps) -> Vec<Metric> {
    let ticks = cpu_ticks();
    let mut latencies = Vec::new();
    let mut by_name: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut cycles = Vec::new();
    let mut jobs = 0usize;
    let (mut rounds, mut sim_s) = (0u64, 0.0f64);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let mut cycle = Cycle::default();
        for i in 0..bench.workload.units.len() {
            let run = bench.execute(i, ExecMode::Parallel, None);
            // Checks run after the result is in hand, outside the timings.
            cycle.busy += run.ended - run.started;
            for (spec, job) in bench.workload.units[i].iter().zip(&run.jobs) {
                cycle.latencies.push(ms(job.latency));
                by_name
                    .entry(spec.name.clone())
                    .or_default()
                    .push(ms(job.latency));
            }
            rounds += run.cluster.rounds();
            sim_s += run.cluster.critical_path_seconds();
            jobs += run.jobs.len();
            cycle.right += bench.settle(i, &run);
        }
        latencies.extend_from_slice(&cycle.latencies);
        cycles.push(cycle);
        setups.again();
    }
    let (mut throughputs, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let windows = windows(&cycles, bench.workload.jobs_per_cycle());
    for window in &windows {
        let lat: Vec<f64> = window
            .iter()
            .flat_map(|c| c.latencies.iter().copied())
            .collect();
        let busy: Duration = window.iter().map(|c| c.busy).sum();
        let right: usize = window.iter().map(|c| c.right).sum();
        throughputs.push(right as f64 / busy.as_secs_f64());
        p50s.push(stats::median(&lat));
        p90s.push(stats::percentile(&lat, 90.0));
    }
    if let (Some((stolen0, total0)), Some((stolen1, total1))) = (ticks, cpu_ticks()) {
        println!(
            "host CPU stolen during the timed loop: {:.1}%",
            100.0 * (stolen1 - stolen0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    for (name, samples) in &by_name {
        println!(
            "  {name}: p50 {:.3} ms over {} jobs",
            stats::median(samples),
            samples.len()
        );
    }
    let p90 = stats::percentile(&latencies, 90.0);
    let beyond = stats::beyond(&latencies, p90);
    println!(
        "job latency over the run: {} samples, p50 {:.3} ms, p90 {p90:.3} ms with {beyond} beyond{}",
        latencies.len(),
        stats::median(&latencies),
        if beyond < 10 {
            " (fewer than 10: p90 is not resolved)"
        } else {
            ""
        }
    );
    let busy: Duration = cycles.iter().map(|c| c.busy).sum();
    let right: usize = cycles.iter().map(|c| c.right).sum();
    println!(
        "over the run: {:.3} jobs/s; reported: medians over {} windows of {} cycles",
        right as f64 / busy.as_secs_f64(),
        windows.len(),
        windows[0].len()
    );
    if p50s.len() >= 2 {
        println!(
            "window p50 quartile spread {:.3}, window p90 quartile spread {:.3}",
            stats::quartile_spread(&p50s),
            stats::quartile_spread(&p90s)
        );
    }
    let ledger = &bench.ledger;
    println!(
        "fail_ratio = {} ratio ({} of {} jobs attempted)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    );
    vec![
        metric("jobs_per_s", stats::median(&throughputs), "jobs/s"),
        metric("job_ms_p50", stats::median(&p50s), "ms"),
        metric("job_ms_p90", stats::median(&p90s), "ms"),
        metric("setup_s", stats::median(&setups.total), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("rounds_per_job", rounds as f64 / jobs as f64, "rounds"),
        metric("sim_s_per_job", sim_s / jobs as f64, "sim-s"),
        metric(
            "success_ratio",
            1.0 - ledger.failed as f64 / ledger.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Counts read from the traced units' clusters and service records.
#[derive(Default)]
struct Counts {
    build: Duration,
    distribute: Duration,
    rounds: u64,
    words: u64,
    messages: u64,
    replica_words: u64,
    checkpoint_sim_s: f64,
    recovery_sim_s: f64,
    sim_s: f64,
    peak_resident: u64,
    queue_rounds: Vec<f64>,
    run_rounds: Vec<f64>,
    share_utilization: Vec<f64>,
}

impl Counts {
    fn absorb(&mut self, run: &UnitRun, unit: &[JobSpec]) {
        let cluster = &run.cluster;
        self.build += run.build;
        let started = Instant::now();
        for spec in unit {
            std::hint::black_box(mpc_core::common::distribute_edges(cluster, &spec.graph));
        }
        self.distribute += started.elapsed();
        for rec in cluster.round_log() {
            match Exchange::of(rec.label.prefix()) {
                Exchange::Algorithm => {
                    self.rounds += 1;
                    self.words += rec.total_words as u64;
                    self.messages += rec.messages as u64;
                }
                Exchange::Checkpoint => {
                    self.replica_words += rec.total_words as u64;
                    self.checkpoint_sim_s += rec.makespan;
                }
                Exchange::Recovery => self.recovery_sim_s += rec.makespan,
            }
        }
        self.sim_s += cluster.critical_path_seconds();
        self.peak_resident += cluster.peak_resident().iter().copied().max().unwrap_or(0) as u64;
        if run.drain_rounds > 0 {
            let shares: u64 = run.records.iter().map(|r| r.shares as u64 * r.rounds).sum();
            let open = (workloads::SERVICE_SHARES as u64 * run.drain_rounds) as f64;
            self.share_utilization.push(shares as f64 / open);
            for r in &run.records {
                self.queue_rounds.push(r.admitted_round as f64);
                self.run_rounds.push(r.rounds as f64);
            }
        }
    }
}

/// The traced pass: whole cycles until `seconds` have passed, each unit
/// run serially, on the pool, and on the pool with the stamping sink.
/// Reports the per-layer metrics.
fn traced(bench: &mut Bench, seconds: f64, setups: &mut SetUps) -> Vec<Metric> {
    let (mut serial, mut parallel) = (Duration::ZERO, Duration::ZERO);
    let mut split = Split::default();
    let mut counts = Counts::default();
    let mut jobs = 0usize;
    let (mut sketch, mut sketches) = (kernels::SketchCost::default(), 0u32);
    let (mut stoer_wagner, mut cuts) = (Duration::ZERO, 0u32);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        for i in 0..bench.workload.units.len() {
            let run = bench.execute(i, ExecMode::Serial, None);
            serial += run.ended - run.started;
            bench.settle(i, &run);
            let run = bench.execute(i, ExecMode::Parallel, None);
            parallel += run.ended - run.started;
            bench.settle(i, &run);
            let sink = Arc::new(StampSink::default());
            let run = bench.execute(i, ExecMode::Parallel, Some(sink.clone()));
            split.absorb(&sink, run.started, run.ended);
            bench.settle(i, &run);
            jobs += run.jobs.len();
            counts.absorb(&run, &bench.workload.units[i]);
        }
        if bench.workload.name == "kernel-heavy" {
            for spec in bench.workload.units.iter().flatten() {
                match spec.name.as_str() {
                    "connectivity" => {
                        let cost = kernels::sketch_pass(&spec.graph, spec.seed);
                        sketch.build += cost.build;
                        sketch.decode += cost.decode;
                        sketch.words += cost.words;
                        sketches += 1;
                    }
                    "mst-approx" => {
                        stoer_wagner += kernels::stoer_wagner(&spec.graph);
                        cuts += 1;
                    }
                    _ => {}
                }
            }
        }
        setups.again();
    }
    let per_job = |x: f64| x / jobs as f64;
    let per_sketch = |x: f64| {
        if sketches == 0 {
            0.0
        } else {
            x / sketches as f64
        }
    };
    let pool = &split.pool;
    let claimed: u64 = pool.per_worker.iter().map(|w| w.claimed).sum();
    let stepped: u64 = pool.per_worker.iter().map(|w| w.stepped).sum();
    let recovery = mpc_exec::RecoveryBreakdown {
        checkpoint_makespan: counts.checkpoint_sim_s,
        recovery_makespan: counts.recovery_sim_s,
        ..Default::default()
    };
    let attributed = split.step_ns
        + split.exchange_ns
        + split.between_ns
        + split.checkpoint_ns
        + split.recovery_ns;
    println!(
        "traced wall {:.1} ms = attributed {:.1} ms + unattributed {:.1} ms over {} jobs",
        ns_ms(split.wall_ns),
        ns_ms(attributed),
        ns_ms(split.unattributed_ns),
        jobs
    );
    vec![
        metric(
            "graph.generate_ms",
            stats::median(&setups.generating) * 1e3,
            "ms",
        ),
        metric(
            "graph.verify_ms",
            ms(bench.verify) / bench.verified.max(1) as f64,
            "ms",
        ),
        metric("runtime.cluster_build_ms", per_job(ms(counts.build)), "ms"),
        metric(
            "runtime.distribute_ms",
            per_job(ms(counts.distribute)),
            "ms",
        ),
        metric(
            "runtime.exchange_ms",
            per_job(ns_ms(split.exchange_ns)),
            "ms",
        ),
        metric("runtime.rounds", per_job(counts.rounds as f64), "rounds"),
        metric("runtime.words", per_job(counts.words as f64), "words"),
        metric("runtime.messages", per_job(counts.messages as f64), "count"),
        metric(
            "runtime.max_load_ratio",
            split.max_load_sum / split.units.max(1) as f64,
            "ratio",
        ),
        metric(
            "runtime.peak_resident_words",
            counts.peak_resident as f64 / split.units.max(1) as f64,
            "words",
        ),
        metric("driver.step_ms", per_job(ns_ms(split.step_ns)), "ms"),
        metric("driver.between_ms", per_job(ns_ms(split.between_ns)), "ms"),
        metric(
            "driver.unattributed_ms",
            per_job(ns_ms(split.unattributed_ns)),
            "ms",
        ),
        metric(
            "driver.active_ratio",
            split.stepping as f64 / split.machines.max(1) as f64,
            "ratio",
        ),
        metric(
            "pool.busy_ms",
            per_job(pool.total_busy_seconds() * 1e3),
            "ms",
        ),
        metric(
            "pool.wait_ms",
            per_job(pool.total_wait_seconds() * 1e3),
            "ms",
        ),
        metric("pool.imbalance", pool.imbalance(), "ratio"),
        metric(
            "pool.stepped_per_claimed",
            stepped as f64 / claimed.max(1) as f64,
            "ratio",
        ),
        metric(
            "pool.speedup_vs_serial",
            serial.as_secs_f64() / parallel.as_secs_f64(),
            "ratio",
        ),
        metric("sketch.build_ms", per_sketch(ms(sketch.build)), "ms"),
        metric("sketch.decode_ms", per_sketch(ms(sketch.decode)), "ms"),
        metric("sketch.words", per_sketch(sketch.words as f64), "words"),
        metric(
            "mincut.stoer_wagner_ms",
            if cuts == 0 {
                0.0
            } else {
                ms(stoer_wagner) / cuts as f64
            },
            "ms",
        ),
        metric(
            "multiplex.instance_steps",
            per_job(split.instance_steps as f64),
            "count",
        ),
        metric("multiplex.retired", per_job(split.retired as f64), "count"),
        metric(
            "resilience.ckpt_ms",
            per_job(ns_ms(split.checkpoint_ns)),
            "ms",
        ),
        metric(
            "resilience.recover_ms",
            per_job(ns_ms(split.recovery_ns)),
            "ms",
        ),
        metric(
            "resilience.replica_words",
            per_job(counts.replica_words as f64),
            "words",
        ),
        metric(
            "resilience.replayed_rounds",
            per_job(split.replayed_rounds as f64),
            "rounds",
        ),
        metric(
            "resilience.sim_overhead_ratio",
            recovery.overhead_ratio(counts.sim_s),
            "ratio",
        ),
        metric(
            "service.queue_rounds_p50",
            stats::median(&counts.queue_rounds),
            "rounds",
        ),
        metric(
            "service.run_rounds_p50",
            stats::median(&counts.run_rounds),
            "rounds",
        ),
        metric(
            "service.share_utilization",
            stats::median(&counts.share_utilization),
            "ratio",
        ),
        metric("trace.wall_ms", per_job(ns_ms(split.wall_ns)), "ms"),
        metric("trace.sink_ms", per_job(ns_ms(split.sink_ns)), "ms"),
        metric(
            "trace.overhead_ratio",
            ns_ms(split.wall_ns) / ms(parallel),
            "ratio",
        ),
        metric("trace.events", per_job(split.events as f64), "count"),
    ]
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };

    // Set-up: process start to the first submission.
    let mut setups = SetUps {
        workload: args.workload.clone(),
        seed: args.seed,
        scale: args.scale,
        total: Vec::new(),
        generating: Vec::new(),
    };
    let workload = match setups.run(process_start) {
        Ok(workload) => workload,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "workload={} seed={} mode=parallel pool_width={} nproc={} jobs_per_cycle={} trace={}",
        workload.name,
        args.seed,
        workloads::pool_width(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload.jobs_per_cycle(),
        args.trace as u8
    );
    let mut bench = Bench::prepare(workload);
    bench.warm_up();
    let metrics = if args.trace {
        traced(&mut bench, args.seconds, &mut setups)
    } else {
        timed(&mut bench, args.seconds, &mut setups)
    };

    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let ledger = &bench.ledger;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
    if ledger.failed > 0 {
        std::process::exit(1);
    }
}
