//! The textbook §2 engine, used as the test oracle for the streaming
//! engines.
//!
//! [`OracleEngine`] is the paper's Fig. 3 loop written out literally
//! over one dense edge list: stream every edge through scatter into a
//! fresh update list, then stream every update through gather. It has
//! no streaming partitions, no shuffle, no pools, no threads and no
//! frontier, and it shares none of that code with the in-memory or
//! out-of-core engine — which is what makes agreement with it
//! meaningful. It is far too slow and allocation-heavy for real runs.

use std::time::Instant;

use crate::alloc_stats;
use crate::engine::Engine;
use crate::program::{EdgeProgram, TargetedUpdate};
use crate::stats::IterationStats;
use crate::types::{Edge, VertexId};

/// A sequential, dense scatter-gather engine over a plain edge list.
pub struct OracleEngine<P: EdgeProgram> {
    edges: Vec<Edge>,
    states: Vec<P::State>,
}

impl<P: EdgeProgram> OracleEngine<P> {
    /// Loads `edges` over vertices `0..num_vertices`, initializing
    /// every vertex with [`EdgeProgram::init`]. Every edge endpoint
    /// must lie in `0..num_vertices`.
    pub fn new(num_vertices: usize, edges: Vec<Edge>, program: &P) -> Self {
        let states = (0..num_vertices as VertexId)
            .map(|v| program.init(v))
            .collect();
        Self { edges, states }
    }
}

impl<P: EdgeProgram> Engine<P> for OracleEngine<P> {
    fn num_vertices(&self) -> usize {
        self.states.len()
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// One superstep with the engines' counting rules: every edge is
    /// streamed, `needs_scatter` gates the scatter call, each
    /// `Some` is a generated update, each gather call an applied one,
    /// and each gather returning `true` a changed vertex.
    fn scatter_gather(&mut self, program: &P) -> IterationStats {
        let alloc_before = alloc_stats::snapshot();
        let mut stats = IterationStats {
            frontier_density: 1.0,
            ..Default::default()
        };

        let t = Instant::now();
        let mut updates = Vec::new();
        for e in &self.edges {
            let src_state = &self.states[e.src as usize];
            if program.needs_scatter(src_state) {
                if let Some(u) = program.scatter(src_state, e) {
                    updates.push(TargetedUpdate::new(e.dst, u));
                }
            }
        }
        stats.edges_streamed = self.edges.len() as u64;
        stats.updates_generated = updates.len() as u64;
        stats.scatter_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        for u in &updates {
            if program.gather(&mut self.states[u.target as usize], &u.payload) {
                stats.vertices_changed += 1;
            }
        }
        stats.updates_applied = updates.len() as u64;
        stats.gather_ns = t.elapsed().as_nanos() as u64;

        let alloc = alloc_before.delta(&alloc_stats::snapshot());
        stats.alloc_count = alloc.count;
        stats.alloc_bytes = alloc.bytes;
        stats
    }

    fn vertex_map(&mut self, f: &mut dyn FnMut(VertexId, &mut P::State)) {
        for (v, s) in self.states.iter_mut().enumerate() {
            f(v as VertexId, s);
        }
    }

    fn vertex_fold(
        &mut self,
        init: f64,
        f: &mut dyn FnMut(f64, VertexId, &P::State) -> f64,
    ) -> f64 {
        let mut acc = init;
        for (v, s) in self.states.iter().enumerate() {
            acc = f(acc, v as VertexId, s);
        }
        acc
    }

    fn states(&mut self) -> Vec<P::State> {
        self.states.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-degree counting: one update per edge, gather adds it.
    struct InDegree;

    impl EdgeProgram for InDegree {
        type State = u32;
        type Update = u32;

        fn init(&self, _v: VertexId) -> u32 {
            0
        }

        fn needs_scatter(&self, s: &u32) -> bool {
            // Vertices already holding in-degree 2 stop sending.
            *s < 2
        }

        fn scatter(&self, _s: &u32, _e: &Edge) -> Option<u32> {
            Some(1)
        }

        fn gather(&self, d: &mut u32, u: &u32) -> bool {
            *d += u;
            true
        }
    }

    #[test]
    fn superstep_counts_follow_the_engine_rules() {
        let edges = vec![Edge::new(0, 1), Edge::new(2, 1), Edge::new(1, 2)];
        let mut e = OracleEngine::new(3, edges, &InDegree);
        let it = e.scatter_gather(&InDegree);
        assert_eq!(e.states(), vec![0, 2, 1]);
        assert_eq!(
            (it.edges_streamed, it.updates_generated, it.updates_applied),
            (3, 3, 3)
        );
        assert_eq!(it.vertices_changed, 3);
        assert!(it.alloc_count > 0, "the update list is allocated fresh");
        // Vertex 1 now has in-degree 2, so `needs_scatter` gates its
        // edge: still streamed, but no update.
        let it = e.scatter_gather(&InDegree);
        assert_eq!((it.edges_streamed, it.updates_generated), (3, 2));
        assert_eq!(e.states(), vec![0, 4, 1]);
        let sum = e.vertex_fold(0.0, &mut |acc, _v, s| acc + f64::from(*s));
        assert_eq!(sum, 5.0);
    }
}
