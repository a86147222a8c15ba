//! Output checks against independent sequential references in
//! `mpc-graph` — never against a second run of the same algorithm.

use mpc_exec::{AlgoOutput, JobSpec};
use mpc_graph::{Edge, Graph};

/// BFS/Dijkstra sources sampled when verifying a spanner's stretch.
const SPANNER_SOURCES: usize = 16;

/// Checks one job's output against the reference answer for its input.
///
/// # Errors
///
/// A message naming the job and what was wrong with its output.
pub fn check(spec: &JobSpec, out: &AlgoOutput) -> Result<(), String> {
    let g = spec.graph.as_ref();
    let eps = spec.params.epsilon;
    let verdict = match (spec.name.as_str(), out) {
        ("connectivity", AlgoOutput::Components(c)) => {
            let want = mpc_graph::traversal::connected_components(g);
            if c.count == want.count && canonical(&c.label) == canonical(&want.label) {
                Ok(())
            } else {
                Err(format!("{} components, want {}", c.count, want.count))
            }
        }
        ("mst", AlgoOutput::Mst(r)) => check_forest(g, &r.forest.edges, r.forest.total_weight),
        ("boruvka-msf", AlgoOutput::Forest(f)) => check_forest(g, &f.edges, f.total_weight),
        ("mst-approx", AlgoOutput::MstApprox(r)) => {
            let exact = mpc_graph::mst::kruskal(g).total_weight as f64;
            within(r.estimate, exact, eps)
        }
        ("matching", AlgoOutput::Matching(r)) => truth(
            mpc_graph::matching::is_maximal_matching(g, &r.matching),
            "not a maximal matching",
        ),
        ("mis", AlgoOutput::Mis(r)) => truth(
            mpc_graph::mis::is_maximal_independent_set(g, &r.mis),
            "not a maximal independent set",
        ),
        ("coloring", AlgoOutput::Coloring(r)) => truth(
            mpc_graph::coloring::is_proper_coloring(g, &r.colors)
                && mpc_graph::coloring::color_count(&r.colors) <= g.max_degree() + 1,
            "not a proper (Δ+1)-coloring",
        ),
        ("spanner" | "spanner-weighted", AlgoOutput::Spanner(r)) => {
            let k = spec.params.spanner_k as f64;
            let bound = if weighted(g) {
                12.0 * k - 1.0
            } else {
                6.0 * k - 1.0
            };
            // A spanner edge missing from the input panics the verifier.
            std::panic::catch_unwind(|| {
                mpc_graph::verify_spanner(g, &r.spanner, Some(SPANNER_SOURCES), spec.seed)
            })
            .map_err(|_| "spanner is not a subgraph of the input".to_string())
            .and_then(|rep| {
                truth(
                    rep.within(bound),
                    &format!("stretch {} exceeds {bound}", rep.max_stretch),
                )
            })
        }
        ("mincut", AlgoOutput::MinCut(r)) => {
            let want = min_cut(&unweighted(g));
            if r.value == want {
                Ok(())
            } else {
                Err(format!("min cut {}, want {want}", r.value))
            }
        }
        (name, _) => Err(format!("no reference check for this output of '{name}'")),
    };
    verdict.map_err(|why| format!("{} (seed {}): {why}", spec.name, spec.seed))
}

fn truth(ok: bool, why: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why.to_string())
    }
}

/// A minimum spanning forest: the reference weight, spanning and acyclic.
fn check_forest(g: &Graph, edges: &[Edge], weight: u128) -> Result<(), String> {
    let want = mpc_graph::mst::kruskal(g).total_weight;
    if weight != want {
        return Err(format!("forest weight {weight}, want {want}"));
    }
    truth(
        mpc_graph::is_spanning_forest(g, edges),
        "not a spanning forest",
    )
}

/// `estimate` lies within a factor `1 ± eps` of `exact`.
fn within(estimate: f64, exact: f64, eps: f64) -> Result<(), String> {
    let slack = eps * exact + 1e-9;
    truth(
        (estimate - exact).abs() <= slack,
        &format!("estimate {estimate} outside (1±{eps})·{exact}"),
    )
}

/// Stoer–Wagner minimum cut weight (0 for a disconnected graph).
fn min_cut(g: &Graph) -> u128 {
    mpc_graph::mincut::min_cut(g).map_or(0, |c| c.weight)
}

fn weighted(g: &Graph) -> bool {
    g.edges().iter().any(|e| e.w != 1)
}

/// The same graph with every weight set to 1.
fn unweighted(g: &Graph) -> Graph {
    Graph::new(g.n(), g.edges().iter().map(|e| Edge::unweighted(e.u, e.v)))
}

/// Component labels renumbered by first appearance, so two labelings of
/// the same partition compare equal.
fn canonical(labels: &[u32]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect()
}
