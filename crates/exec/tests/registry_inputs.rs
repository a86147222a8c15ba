//! The registry's input contract: parameters out of range and clusters
//! the programs cannot run on are typed [`ExecError::Algorithm`]s (never
//! a panic, and nothing runs), and the weighted spanner keeps every edge
//! class — zero weights included.

use mpc_core::common;
use mpc_exec::registry::{run, run_job, CANONICAL_NAMES};
use mpc_exec::{AlgoInput, ExecError, ExecMode, JobParams, JobSpec};
use mpc_graph::{generators, verify_spanner, Edge, Graph};
use mpc_runtime::{Cluster, ClusterConfig, ShardedVec, Topology};

#[test]
fn out_of_range_parameters_are_typed_errors() {
    let g = generators::gnm(32, 96, 3).with_random_weights(64, 3);
    let cases = [
        ("spanner", JobParams::default().spanner_k(1)),
        ("spanner-weighted", JobParams::default().spanner_k(0)),
        ("mst-approx", JobParams::default().epsilon(0.0)),
        ("mst-approx", JobParams::default().epsilon(f64::NAN)),
        ("mst-approx", JobParams::default().epsilon(f64::INFINITY)),
        ("mincut-approx", JobParams::default().epsilon(1.5)),
        ("mincut-approx", JobParams::default().epsilon(1.0)),
    ];
    for (name, params) in cases {
        for params in [params.clone(), params.sequential_instances()] {
            let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()));
            let edges = common::distribute_edges(&cluster, &g);
            let input = AlgoInput {
                n: g.n(),
                edges: &edges,
                params,
            };
            let err = run(name, &mut cluster, &input, ExecMode::Serial).unwrap_err();
            assert!(
                matches!(err, ExecError::Algorithm { .. }),
                "{name}: expected a typed parameter error, got {err}"
            );
            assert_eq!(cluster.rounds(), 0, "{name}: nothing may run");
        }
    }
}

#[test]
fn clusters_without_both_machine_roles_are_typed_errors() {
    let g = generators::gnm(24, 60, 5);
    let shapes = [
        ("no large machine", vec![4000; 4], None),
        ("no small machine", vec![4000], Some(0)),
    ];
    for (shape, capacities, large) in shapes {
        let config =
            ClusterConfig::new(g.n(), g.m()).topology(Topology::Custom { capacities, large });
        for name in CANONICAL_NAMES {
            let mut cluster = Cluster::new(config.clone());
            let edges = ShardedVec::new(&cluster);
            let input = AlgoInput::new(g.n(), &edges);
            let err = run(name, &mut cluster, &input, ExecMode::Serial).unwrap_err();
            assert!(
                matches!(err, ExecError::Algorithm { .. }),
                "{name} on a cluster with {shape}: got {err}"
            );
            let spec = JobSpec::new(name, g.clone());
            let err = run_job(&spec, &mut cluster, ExecMode::Serial).unwrap_err();
            assert!(
                matches!(err, ExecError::Algorithm { .. }),
                "{name} job on a cluster with {shape}: got {err}"
            );
        }
    }
}

#[test]
fn input_on_the_large_machine_is_a_typed_error() {
    let g = generators::gnm(24, 60, 6);
    for name in CANONICAL_NAMES {
        let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m()));
        let large = cluster.large().unwrap();
        let mut edges = common::distribute_edges(&cluster, &g);
        edges.shard_mut(large).push(Edge::new(0, 1, 1));
        let input = AlgoInput::new(g.n(), &edges);
        let err = run(name, &mut cluster, &input, ExecMode::Serial).unwrap_err();
        assert!(
            matches!(err, ExecError::Algorithm { .. }),
            "{name}: got {err}"
        );
    }
}

/// A zero-weight edge belongs to the lightest weight class; dropping it
/// would disconnect the spanner of a connected graph.
#[test]
fn zero_weight_edges_stay_in_the_weighted_spanner() {
    let g = Graph::new(
        4,
        vec![Edge::new(0, 1, 3), Edge::new(1, 2, 0), Edge::new(2, 3, 5)],
    );
    for batched in [true, false] {
        for name in ["spanner-weighted", "apsp"] {
            let mut cluster = Cluster::new(
                ClusterConfig::new(g.n(), g.m())
                    .seed(1)
                    .polylog_exponent(1.6),
            );
            let edges = common::distribute_edges(&cluster, &g);
            let mut input = AlgoInput::new(g.n(), &edges);
            input.params.batch_instances = batched;
            let out = run(name, &mut cluster, &input, ExecMode::Serial).unwrap();
            let stretch = match name {
                "apsp" => out.into_apsp().map(|(oracle, s)| (oracle.stretch_bound, s)),
                _ => out.into_spanner().map(|s| (12 * 3 - 1, s)),
            };
            let (bound, spanner) = stretch.unwrap();
            let what = format!("{name} (batched: {batched})");
            assert_eq!(spanner.spanner.m(), 3, "{what}: a path is its own spanner");
            let report = verify_spanner(&g, &spanner.spanner, None, 0);
            assert!(report.within(bound as f64), "{what}: {report:?}");
        }
    }
}
