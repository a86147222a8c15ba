//! (1+ε)-approximate MST weight in `O(1)` rounds (Theorem C.2).
//!
//! The Chazelle–Rubinfeld–Trevisan / AGM estimator: for integer weights in
//! `[1, W]`,
//!
//! ```text
//! MSF(G) = n − W·c_W + Σ_{i=1}^{W−1} c_i
//! ```
//!
//! where `c_i` is the number of components of the subgraph with edges of
//! weight `≤ i` (and `c_W` the overall component count). Evaluating `c` at
//! geometrically spaced thresholds `τ_j = (1+ε)^j` over-counts each interval
//! by at most a `(1+ε)` factor, giving a `(1+ε)`-approximation from
//! `O(log_{1+ε} W)` connectivity instances — each the `O(1)`-round sketch
//! connectivity of Theorem C.1, run **in parallel** in the paper. This
//! legacy implementation runs them sequentially and reports both the sum
//! of rounds and the parallel figure (max over instances); it survives as
//! the equivalence oracle for the engine's batched path
//! (`mpc_exec::MixedWave::batched`), which interleaves all instances into one
//! engine run and achieves the parallel figure for real.

use super::connectivity::{components_below_threshold, ConnectivityConfig};
use crate::common;
use mpc_graph::Edge;
use mpc_runtime::{Cluster, ModelViolation, ShardedVec};

/// Result of the MST-weight estimator.
#[derive(Clone, Debug, PartialEq)]
pub struct MstApprox {
    /// The weight estimate.
    pub estimate: f64,
    /// Thresholds evaluated.
    pub thresholds: Vec<u64>,
    /// Component count at each threshold.
    pub component_counts: Vec<usize>,
    /// Rounds a parallel execution would need (max over instances).
    pub parallel_rounds: u64,
}

/// Geometric thresholds `1 = τ_0 < τ_1 < … ≥ W` on the `(1+ε)` grid —
/// shared by the legacy path and the engine program.
pub fn geometric_thresholds(w_max: u64, epsilon: f64) -> Vec<u64> {
    let mut thresholds: Vec<u64> = vec![1];
    loop {
        let last = *thresholds.last().unwrap();
        if last >= w_max {
            break;
        }
        let next = (((last as f64) * (1.0 + epsilon)).ceil() as u64).max(last + 1);
        thresholds.push(next.min(w_max));
    }
    thresholds
}

/// The estimator formula on the geometric grid: each interval
/// `[τ_j, τ_{j+1})` contributes `(τ_{j+1} − τ_j) · c_{τ_j}`, and the whole
/// estimate is `n − W·c_W + Σ intervals`. Shared by both paths.
pub fn estimate_from_counts(
    n: usize,
    w_max: u64,
    thresholds: &[u64],
    component_counts: &[usize],
) -> f64 {
    let c_last = *component_counts.last().expect("at least one threshold");
    let mut sum = 0f64;
    for j in 0..thresholds.len() {
        let lo = thresholds[j];
        let hi = if j + 1 < thresholds.len() {
            thresholds[j + 1]
        } else {
            w_max
        };
        if hi > lo {
            sum += (hi - lo) as f64 * component_counts[j] as f64;
        }
    }
    n as f64 - (w_max as f64) * c_last as f64 + sum
}

/// Estimates the MSF weight within `(1+ε)` w.h.p.
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn approximate_mst_weight(
    cluster: &mut Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    epsilon: f64,
) -> Result<MstApprox, ModelViolation> {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let w_max = edges.iter().map(|(_, e)| e.w).max().unwrap_or(1).max(1);
    let thresholds = geometric_thresholds(w_max, epsilon);
    let config = ConnectivityConfig::for_n(n);
    let mut component_counts = Vec::with_capacity(thresholds.len());
    let mut parallel_rounds = 0u64;
    for &t in &thresholds {
        let before = cluster.rounds();
        let c = components_below_threshold(cluster, n, edges, t, &config)?;
        parallel_rounds = parallel_rounds.max(cluster.rounds() - before);
        component_counts.push(c);
    }
    let estimate = estimate_from_counts(n, w_max, &thresholds, &component_counts);
    Ok(MstApprox {
        estimate,
        thresholds,
        component_counts,
        parallel_rounds,
    })
}

/// Convenience wrapper used by tests and benches: builds a sketch-friendly
/// cluster, distributes `g`, estimates.
///
/// # Errors
///
/// Propagates capacity violations in strict mode.
pub fn estimate_for_graph(
    g: &mpc_graph::Graph,
    epsilon: f64,
    seed: u64,
) -> Result<(MstApprox, u64), ModelViolation> {
    let mut cluster = Cluster::new(super::connectivity::sketch_friendly_config(
        g.n(),
        g.m().max(1),
        seed,
    ));
    let input = common::distribute_edges(&cluster, g);
    let r = approximate_mst_weight(&mut cluster, g.n(), &input, epsilon)?;
    Ok((r, cluster.rounds()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::{generators, mst::kruskal};

    #[test]
    fn estimate_is_close_to_exact_mst() {
        let g = generators::gnm(80, 400, 2).with_random_weights(32, 2);
        let exact = kruskal(&g).total_weight as f64;
        let (r, _) = estimate_for_graph(&g, 0.25, 2).unwrap();
        // Thresholded counts are exact (sketches are w.h.p. exact), so the
        // only error is the geometric grid: within (1+ε) above, never below
        // by more than the grid slack.
        assert!(
            r.estimate >= exact * 0.95 && r.estimate <= exact * 1.35,
            "estimate {} vs exact {exact}",
            r.estimate
        );
    }

    #[test]
    fn unweighted_graph_estimate_equals_spanning_forest_size() {
        let g = generators::gnm(60, 150, 3); // all weights 1
        let exact = kruskal(&g).total_weight as f64;
        let (r, _) = estimate_for_graph(&g, 0.5, 3).unwrap();
        assert!(
            (r.estimate - exact).abs() < 1e-9,
            "{} vs {exact}",
            r.estimate
        );
    }

    #[test]
    fn finer_epsilon_means_more_thresholds() {
        let g = generators::gnm(40, 120, 4).with_random_weights(64, 4);
        let (coarse, _) = estimate_for_graph(&g, 1.0, 4).unwrap();
        let (fine, _) = estimate_for_graph(&g, 0.1, 4).unwrap();
        assert!(fine.thresholds.len() > coarse.thresholds.len());
    }

    #[test]
    fn parallel_rounds_are_constant() {
        let g = generators::gnm(64, 200, 5).with_random_weights(16, 5);
        let (r, _) = estimate_for_graph(&g, 0.5, 5).unwrap();
        assert!(
            r.parallel_rounds <= 12,
            "parallel rounds {}",
            r.parallel_rounds
        );
    }
}
