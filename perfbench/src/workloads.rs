//! The workloads: how each one's inputs are generated from the seed (the
//! set-up), and how one closed-loop unit of it — a solo job, or a batch
//! drained through the service — is submitted and waited for.

use mpc_exec::{registry, AlgoOutput, ExecError, ExecMode, JobRecord, JobSpec, Service};
use mpc_graph::{generators, Graph};
use mpc_runtime::{Cluster, ClusterConfig, CostModel, FaultPlan, TraceSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every workload name the benchmark accepts.
pub const NAMES: [&str; 3] = ["kernel-heavy", "service-mixed", "checkpointed"];

/// How a workload's jobs reach the library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// One `registry::run_job` per unit.
    Solo,
    /// One batch per unit, submitted to a `Service` and drained by `run_on`.
    Service,
    /// One `registry::run_job` per unit, with a seeded small-machine crash
    /// attached to every job.
    Faulted,
}

/// Input sizes: the benchmark's own, or a tiny set for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Graphs per job name in one cycle of a solo workload: a run's figures
/// average over this many inputs of each kind.
const INSTANCES: usize = 2;

/// Service batches per cycle, each on its own graph: with an odd count a
/// window's median latency falls inside one graph's drains.
const SERVICE_BATCHES: usize = 3;

/// Capacity shares the service cluster holds open at once.
pub const SERVICE_SHARES: usize = 3;

/// The six service tenants, in submission order.
const TENANTS: [&str; 6] = [
    "spanner-weighted",
    "matching",
    "mincut",
    "mis",
    "coloring",
    "connectivity",
];

/// One workload's generated inputs.
pub struct Workload {
    pub name: &'static str,
    pub route: Route,
    /// Closed-loop units in cycle order: one job each, or one service
    /// batch each.
    pub units: Vec<Vec<JobSpec>>,
}

impl Workload {
    /// Jobs in one pass over every unit.
    pub fn jobs_per_cycle(&self) -> usize {
        self.units.iter().map(Vec::len).sum()
    }
}

/// A seed for the `i`-th generator call of a run seeded with `seed`.
fn derive(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Generates the named workload's graphs and job specs from `seed`.
/// Returns the workload and the time spent in generator calls.
///
/// # Errors
///
/// An unknown workload name.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<(Workload, Duration), String> {
    let tiny = scale == Scale::Tiny;
    let mut generating = Duration::ZERO;
    let mut calls = 0u64;
    let mut gen = |make: &dyn Fn(u64) -> Graph| {
        calls += 1;
        let started = Instant::now();
        let g = Arc::new(make(derive(seed, calls)));
        generating += started.elapsed();
        g
    };
    let spec = |name: &str, g: &Arc<Graph>, unit: usize| {
        JobSpec::new(name, Arc::clone(g)).seed(derive(seed, 1000 + unit as u64))
    };
    let (route, units): (Route, Vec<Vec<JobSpec>>) = match name {
        "kernel-heavy" => {
            let (nc, na_small, na) = if tiny { (128, 40, 64) } else { (192, 64, 128) };
            // Three connectivity jobs between a smaller and a larger
            // mst-approx job: the median latency falls in the middle of
            // connectivity's samples and p90 in the larger mst-approx's.
            let jobs = [
                ("connectivity", nc),
                ("mst-approx", na_small),
                ("connectivity", nc),
                ("mst-approx", na),
                ("connectivity", nc),
            ];
            let mut units = Vec::new();
            for (name, n) in jobs.into_iter().cycle().take(INSTANCES * jobs.len()) {
                let max_weight = if name == "mst-approx" { 4 } else { 1 << 12 };
                let g = gen(&|s| generators::gnm(n, 6 * n, s).with_random_weights(max_weight, s));
                units.push(vec![spec(name, &g, units.len())]);
            }
            (Route::Solo, units)
        }
        "checkpointed" => {
            let (n, ncut) = if tiny { (120, 60) } else { (2000, 500) };
            let mut units = Vec::new();
            for _ in 0..INSTANCES {
                let weighted =
                    gen(&|s| generators::gnm(n, 6 * n, s).with_random_weights(1 << 12, s));
                let plain = gen(&|s| generators::gnm(n, 6 * n, s));
                // The degree-skewed input: hot vertices and straggling machines.
                let skewed = gen(&|s| generators::chung_lu(n, 6 * n, 2.5, s));
                // Exact min cut is checked by Stoer–Wagner, cubic in n: its
                // input stays small while its 12-round trials keep its
                // rounds many and light.
                let cut = gen(&|s| generators::gnm(ncut, 6 * ncut, s));
                let jobs = [
                    ("mst", &weighted),
                    ("boruvka-msf", &weighted),
                    ("matching", &skewed),
                    ("mis", &plain),
                    ("coloring", &plain),
                    ("mincut", &cut),
                    ("spanner-weighted", &weighted),
                ];
                for (name, g) in jobs {
                    units.push(vec![spec(name, g, units.len())]);
                }
            }
            (Route::Faulted, units)
        }
        "service-mixed" => {
            let n = if tiny { 128 } else { 256 };
            let mut units = Vec::new();
            for _ in 0..SERVICE_BATCHES {
                let g = gen(&|s| generators::gnm(n, 6 * n, s).with_random_weights(1 << 12, s));
                let batch = TENANTS
                    .iter()
                    .enumerate()
                    .map(|(i, name)| spec(name, &g, units.len() * TENANTS.len() + i))
                    .collect();
                units.push(batch);
            }
            (Route::Service, units)
        }
        other => {
            return Err(format!(
                "unknown workload '{other}'; known: {}",
                NAMES.join(", ")
            ))
        }
    };
    let name = NAMES
        .into_iter()
        .find(|n| *n == name)
        .expect("matched a known workload above");
    Ok((Workload { name, route, units }, generating))
}

/// Worker threads of the parallel pool, derived as the engine derives
/// them: `MPC_POOL_THREADS` when set, else the host's parallelism.
pub fn pool_width() -> usize {
    std::env::var("MPC_POOL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The cluster a solo job runs on: the job's own seed and the headroom
/// its algorithm declares.
pub fn solo_config(spec: &JobSpec) -> ClusterConfig {
    let polylog = registry::get(&spec.name).map_or(1.0, |a| a.polylog_exponent);
    ClusterConfig::new(spec.graph.n(), spec.graph.m().max(1))
        .seed(spec.seed)
        .polylog_exponent(polylog)
}

/// The shared service cluster's shape, seeded with `seed`: the largest
/// headroom any tenant declares. A tenant's solo twin runs on this shape
/// with the tenant's seed.
pub fn service_config(g: &Graph, seed: u64) -> ClusterConfig {
    let polylog = TENANTS
        .iter()
        .filter_map(|name| registry::get(name))
        .map(|a| a.polylog_exponent)
        .fold(1.0_f64, f64::max);
    ClusterConfig::new(g.n(), g.m().max(1))
        .seed(seed)
        .polylog_exponent(polylog)
}

/// One finished job as its caller sees it.
pub struct Finished {
    pub output: Result<AlgoOutput, ExecError>,
    /// Submission to result-in-hand.
    pub latency: Duration,
}

/// One unit's run: its jobs, and the cluster it ran on for inspection.
pub struct UnitRun {
    pub started: Instant,
    pub ended: Instant,
    /// Time spent in `Cluster::new`.
    pub build: Duration,
    pub jobs: Vec<Finished>,
    pub cluster: Cluster,
    /// The service's scheduling records (service units only).
    pub records: Vec<JobRecord>,
    /// Engine rounds of the service drain (service units only).
    pub drain_rounds: u64,
}

/// A fresh cluster with the uniform cost model the simulated times use.
fn cluster_for(config: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(config);
    let model = CostModel::uniform(cluster.machines(), 1.0, 1.0, 0.5);
    cluster.set_cost_model(model);
    cluster
}

/// Runs one job alone on a fresh cluster built from `config`, with an
/// optional fault plan and trace sink attached.
pub fn run_solo(
    spec: &JobSpec,
    config: ClusterConfig,
    plan: Option<&FaultPlan>,
    mode: ExecMode,
    sink: Option<Arc<dyn TraceSink>>,
) -> UnitRun {
    let started = Instant::now();
    let mut cluster = cluster_for(config);
    let build = started.elapsed();
    cluster.set_fault_plan(plan.cloned());
    cluster.set_trace_sink(sink);
    let output = registry::run_job(spec, &mut cluster, mode);
    let ended = Instant::now();
    cluster.set_trace_sink(None);
    UnitRun {
        started,
        ended,
        build,
        jobs: vec![Finished {
            output,
            latency: ended - started,
        }],
        cluster,
        records: Vec::new(),
        drain_rounds: 0,
    }
}

/// Submits one batch to a service and drains it on a fresh shared
/// cluster. Every job's result is takeable only once the drain returns.
pub fn run_service(
    batch: &[JobSpec],
    config: ClusterConfig,
    mode: ExecMode,
    sink: Option<Arc<dyn TraceSink>>,
) -> UnitRun {
    let started = Instant::now();
    let mut service = Service::new(config.clone())
        .capacity_shares(SERVICE_SHARES)
        .threads(pool_width());
    let submitted: Vec<_> = batch
        .iter()
        .map(|spec| (Instant::now(), service.submit(spec.clone())))
        .collect();
    let built = Instant::now();
    let mut cluster = cluster_for(config);
    let build = built.elapsed();
    cluster.set_trace_sink(sink);
    let drained = service.run_on(&mut cluster, mode);
    let ended = Instant::now();
    cluster.set_trace_sink(None);
    let (records, drain_rounds) = match &drained {
        Ok(run) => (run.records.clone(), run.rounds),
        Err(_) => (Vec::new(), 0),
    };
    let jobs = submitted
        .into_iter()
        .map(|(at, handle)| {
            let output = match (&drained, handle) {
                (Err(e), _) => Err(e.clone()),
                (Ok(_), Err(e)) => Err(e),
                (Ok(_), Ok(h)) => h.take_result().unwrap_or_else(|| {
                    Err(ExecError::Algorithm {
                        message: format!("job {} left the drain without a result", h.id()),
                    })
                }),
            };
            Finished {
                output,
                latency: ended - at,
            }
        })
        .collect();
    UnitRun {
        started,
        ended,
        build,
        jobs,
        cluster,
        records,
        drain_rounds,
    }
}
