//! # mpc-exec — the parallel execution engine
//!
//! The paper's model promises that per-round local computation is "free";
//! the legacy simulator nevertheless executes every machine's local work
//! *serially* on one thread, so simulated wall-clock grows with cluster
//! size — the opposite of what an MPC deployment does. This crate closes
//! that gap:
//!
//! * [`MachineProgram`] — an algorithm as a per-machine state machine
//!   (`step(ctx, inbox) -> StepOutcome`), i.e. *data the engine drives*
//!   instead of a loop that owns the [`Cluster`](mpc_runtime::Cluster);
//! * [`Executor`] — a round driver that steps all machines concurrently on
//!   a **persistent worker pool** ([`pool`]; std-only, the offline build
//!   environment has no rayon) with dynamic work claiming, deterministic
//!   inbox ordering, and **bit-identical** round logs, results, and RNG
//!   streams to serial execution under the same seed. The round loop is
//!   allocation-free in steady state (interned labels, reused buffers);
//! * a heterogeneous [`CostModel`](mpc_runtime::CostModel) (per-machine
//!   compute speed, link bandwidth, per-round latency) lives in
//!   `mpc-runtime` and turns every round into a simulated *makespan*, so
//!   straggler and non-uniform-speed scenarios are measurable.
//!
//! Ported programs live in [`programs`]; [`registry`] runs each of them
//! by name.
//!
//! ## Example
//!
//! ```
//! use mpc_exec::{registry, AlgoInput, ExecMode};
//! use mpc_core::common;
//! use mpc_core::ported::connectivity::sketch_friendly_config;
//! use mpc_graph::generators;
//! use mpc_runtime::Cluster;
//!
//! let g = generators::gnm(64, 160, 7);
//! let mut cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), 7));
//! let edges = common::distribute_edges(&cluster, &g);
//! let input = AlgoInput::new(g.n(), &edges);
//! let comps = registry::run("connectivity", &mut cluster, &input, ExecMode::Parallel)
//!     .unwrap()
//!     .into_components()
//!     .unwrap();
//! assert_eq!(comps, mpc_graph::traversal::connected_components(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combinators;
pub mod driver;
pub mod machine;
pub mod mixed;
pub mod pool;
pub mod programs;
pub mod registry;
pub mod report;
pub mod service;

pub use combinators::{Driven, Outbox, Owners, RoleProgram};
pub use driver::{ExecError, ExecMode, ExecOutcome, Executor, WaveRound};
pub use machine::{MachineCtx, MachineProgram, StepOutcome};
pub use mixed::{ErasedMsg, ErasedProgram, LaneController, MixedLane, MixedMsg, MixedWave};
pub use programs::{
    BoruvkaProgram, ColoringProgram, ConnectivityProgram, MatchingProgram, MinCutApproxProgram,
    MinCutProgram, MisProgram, MstApproxProgram, MstProgram, SpannerProgram,
};
pub use registry::{AlgoInput, AlgoOutput, Algorithm, JobParams, JobRetryPolicy, JobSpec};
pub use report::{CriticalPath, MachineLoad, RecoveryBreakdown, RunReport};
pub use service::{JobHandle, JobRecord, JobStatus, Service, ServiceRun};

/// Multiplexing: independent instances run as the lanes of one
/// [`MixedWave`](mixed::MixedWave) match their solo runs, each under both
/// lane RNG-stream policies. The fixture lives in `mixed`'s tests.
#[cfg(test)]
mod multiplex {
    mod tests {
        use crate::mixed::tests::{
            halted_lanes_reactivate_on_tagged_mail, lanes_match_solo_runs,
            retired_lanes_contribute_zero_traffic_to_later_rounds, Policy,
        };

        const POLICIES: [Policy; 2] = [Policy::Shared, Policy::Private];

        #[test]
        fn multiplexed_instances_match_solo_runs() {
            POLICIES.into_iter().for_each(lanes_match_solo_runs);
        }

        #[test]
        fn retired_instances_contribute_zero_traffic_to_later_rounds() {
            POLICIES
                .into_iter()
                .for_each(retired_lanes_contribute_zero_traffic_to_later_rounds);
        }

        #[test]
        fn halted_instances_reactivate_on_tagged_mail() {
            POLICIES
                .into_iter()
                .for_each(halted_lanes_reactivate_on_tagged_mail);
        }
    }
}
