//! Direct calls into the large machine's local kernels, timed outside any
//! engine run: the linear sketches connectivity builds and decodes, and
//! the Stoer–Wagner minimum cut.

use mpc_core::ported::connectivity::ConnectivityConfig;
use mpc_graph::Graph;
use mpc_runtime::Payload;
use mpc_sketch::{SketchFamily, SparseSketch};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one sketch pass over a graph cost.
#[derive(Default, Clone, Copy)]
pub struct SketchCost {
    /// Building every vertex's sparse sketch and merging pairs of them.
    pub build: Duration,
    /// Densifying and decoding every merged sketch.
    pub decode: Duration,
    /// Words of the vertex sketches, computed from their nonzero cells.
    pub words: u64,
}

/// Sketches `g` at the phase count connectivity uses for its size: per
/// phase, one sparse sketch per vertex from its incident edges, merged in
/// pairs (one contraction step), then each merged sketch decoded.
pub fn sketch_pass(g: &Graph, seed: u64) -> SketchCost {
    let n = g.n();
    let phases = ConnectivityConfig::for_n(n).phases;
    let family = SketchFamily::new(n, phases, seed);
    let mut cost = SketchCost::default();
    for phase in 0..phases {
        let started = Instant::now();
        let mut sketches = vec![SparseSketch::new(); n];
        for e in g.edges() {
            family.add_edge_sparse(&mut sketches[e.u as usize], phase, e.u, e.v);
            family.add_edge_sparse(&mut sketches[e.v as usize], phase, e.v, e.u);
        }
        cost.words += sketches.iter().map(|s| s.words() as u64).sum::<u64>();
        let merged: Vec<SparseSketch> = sketches
            .chunks(2)
            .map(|pair| {
                let mut acc = pair[0].clone();
                for other in &pair[1..] {
                    acc.merge(other);
                }
                acc
            })
            .collect();
        cost.build += started.elapsed();
        let started = Instant::now();
        for sketch in &merged {
            black_box(family.decode_phase(&family.to_dense(black_box(sketch)), phase));
        }
        cost.decode += started.elapsed();
    }
    cost
}

/// Times one Stoer–Wagner minimum cut of `g`.
pub fn stoer_wagner(g: &Graph) -> Duration {
    let started = Instant::now();
    black_box(mpc_graph::mincut::min_cut(black_box(g)));
    started.elapsed()
}
