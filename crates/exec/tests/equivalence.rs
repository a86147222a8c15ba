//! Engine-ported programs must reproduce the legacy call-style results:
//! same components, same forest, on the same cluster seed.

use mpc_core::ported::connectivity::{sketch_friendly_config, ConnectivityConfig};
use mpc_core::{common, mst};
use mpc_exec::{registry, AlgoInput, ExecMode, JobParams};
use mpc_graph::{generators, traversal::connected_components, Edge};
use mpc_runtime::{Cluster, ClusterConfig};

#[test]
fn connectivity_program_equals_legacy_exactly() {
    for seed in [1u64, 5, 11] {
        let g = generators::gnm(96, 240, seed);
        let config = ConnectivityConfig::for_n(g.n());

        let mut legacy_cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed));
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy = mpc_core::ported::heterogeneous_connectivity(
            &mut legacy_cluster,
            g.n(),
            &legacy_input,
            &config,
        )
        .unwrap();

        let mut engine_cluster = Cluster::new(sketch_friendly_config(g.n(), g.m(), seed));
        let engine_input = common::distribute_edges(&engine_cluster, &g);
        let engine_input = AlgoInput {
            n: g.n(),
            edges: &engine_input,
            params: JobParams::default().connectivity(config),
        };
        let engine = registry::run(
            "connectivity",
            &mut engine_cluster,
            &engine_input,
            ExecMode::Parallel,
        )
        .unwrap()
        .into_components()
        .unwrap();

        // Exact equality: the program draws the same seed from the same
        // RNG stream and sums the same linear sketches.
        assert_eq!(engine, legacy, "seed {seed}");
        // And both match the sequential reference.
        assert_eq!(engine, connected_components(&g), "seed {seed}");
    }
}

#[test]
fn boruvka_program_matches_legacy_mst() {
    for seed in [2u64, 7, 13] {
        // Unique weights => the MSF is unique => edge sets must agree.
        let base = generators::gnm(100, 420, seed);
        let edges: Vec<Edge> = base
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, 1_000 + i as u64))
            .collect();
        let g = mpc_graph::Graph::new(100, edges);

        let mut legacy_cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(seed));
        let legacy_input = common::distribute_edges(&legacy_cluster, &g);
        let legacy = mst::heterogeneous_mst(&mut legacy_cluster, g.n(), legacy_input)
            .unwrap()
            .forest;

        let mut engine_cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(seed));
        let engine_input = common::distribute_edges(&engine_cluster, &g);
        let engine = registry::run(
            "boruvka-msf",
            &mut engine_cluster,
            &AlgoInput::new(g.n(), &engine_input),
            ExecMode::Parallel,
        )
        .unwrap()
        .into_forest()
        .unwrap();

        assert_eq!(engine.keys(), legacy.keys(), "seed {seed}");
        assert_eq!(engine.total_weight, legacy.total_weight, "seed {seed}");
        assert!(mst::is_minimum_spanning_forest(&g, &engine), "seed {seed}");
    }
}

#[test]
fn boruvka_handles_disconnected_and_tiny_inputs() {
    // Disconnected forest input.
    let g = generators::random_forest(80, 5, 3).with_random_weights(500, 3);
    let mut cluster = Cluster::new(ClusterConfig::new(g.n(), g.m().max(1)).seed(9));
    let input = common::distribute_edges(&cluster, &g);
    let input = AlgoInput::new(g.n(), &input);
    let forest = registry::run("boruvka-msf", &mut cluster, &input, ExecMode::Parallel)
        .unwrap()
        .into_forest()
        .unwrap();
    assert!(mst::is_minimum_spanning_forest(&g, &forest));

    // Empty graph: engine must terminate with an empty forest.
    let empty = mpc_graph::Graph::empty(10);
    let mut cluster = Cluster::new(ClusterConfig::new(10, 1).seed(1));
    let input = common::distribute_edges(&cluster, &empty);
    let input = AlgoInput::new(empty.n(), &input);
    let forest = registry::run("boruvka-msf", &mut cluster, &input, ExecMode::Serial)
        .unwrap()
        .into_forest()
        .unwrap();
    assert!(forest.is_empty());
}
