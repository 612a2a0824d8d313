//! Independent textbook answers, computed from the generated edge list
//! outside every timed window: union-find components, queue BFS and
//! Dijkstra over a CSR, and a sequential `f64` PageRank.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use xstream_core::Edge;

/// Level of an unreached vertex (the engines use the same sentinel).
pub const UNREACHED: u32 = u32::MAX;

/// PageRank damping, as in `xstream_algorithms::pagerank`.
const DAMPING: f64 = 0.85;

/// Relative tolerance between an engine's `f32` rank and the `f64`
/// oracle; summation order differs, so ranks are close, not equal.
pub const RANK_RTOL: f64 = 1e-4;

/// Directed adjacency with weights.
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f32>,
}

impl Csr {
    pub fn new(num_vertices: usize, edges: &[Edge]) -> Self {
        let mut offsets = vec![0usize; num_vertices + 1];
        for e in edges {
            offsets[e.src as usize + 1] += 1;
        }
        for v in 0..num_vertices {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        let mut weights = vec![0f32; edges.len()];
        for e in edges {
            let slot = &mut fill[e.src as usize];
            targets[*slot] = e.dst;
            weights[*slot] = e.weight;
            *slot += 1;
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn out(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// BFS levels from `root` by a plain FIFO queue.
    pub fn bfs(&self, root: u32) -> Vec<u32> {
        let mut level = vec![UNREACHED; self.num_vertices()];
        level[root as usize] = 0;
        let mut queue = VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            for i in self.out(v) {
                let w = self.targets[i];
                if level[w as usize] == UNREACHED {
                    level[w as usize] = level[v as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        level
    }

    /// Shortest-path distances from `root` (Dijkstra). Weights are
    /// small integers, so every sum is exact in `f32` and the engine's
    /// Bellman-Ford answer must match bit for bit.
    pub fn dijkstra(&self, root: u32) -> Vec<f32> {
        let mut dist = vec![f32::INFINITY; self.num_vertices()];
        dist[root as usize] = 0.0;
        let mut heap = BinaryHeap::from([Reverse((0u32, root))]);
        while let Some(Reverse((d, v))) = heap.pop() {
            if d as f32 > dist[v as usize] {
                continue;
            }
            for i in self.out(v) {
                let w = self.targets[i];
                let nd = d as f32 + self.weights[i];
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                    heap.push(Reverse((nd as u32, w)));
                }
            }
        }
        dist
    }
}

/// Component labels as the minimum vertex id of each weakly connected
/// component (what min-label propagation converges to), by union-find.
pub fn components(num_vertices: usize, edges: &[Edge]) -> Vec<u32> {
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let grand = parent[parent[v as usize] as usize];
            parent[v as usize] = grand;
            v = grand;
        }
        v
    }
    let mut parent: Vec<u32> = (0..num_vertices as u32).collect();
    for e in edges {
        let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
        // Linking the larger root under the smaller keeps every root
        // the minimum of its component.
        if a < b {
            parent[b as usize] = a;
        } else if b < a {
            parent[a as usize] = b;
        }
    }
    (0..num_vertices as u32)
        .map(|v| find(&mut parent, v))
        .collect()
}

/// Number of distinct labels.
pub fn count_components(labels: &[u32]) -> usize {
    labels
        .iter()
        .enumerate()
        .filter(|&(v, &l)| v as u32 == l)
        .count()
}

/// Sequential PageRank in `f64`, same formulation as the engines:
/// uniform start, `rank = (1 - d)/n + d * sum(rank(u) / deg(u))`.
pub fn pagerank(num_vertices: usize, edges: &[Edge], iterations: usize) -> Vec<f64> {
    let n = num_vertices;
    let mut degree = vec![0u32; n];
    for e in edges {
        degree[e.src as usize] += 1;
    }
    let mut rank = vec![1.0 / n as f64; n];
    let mut acc = vec![0f64; n];
    for _ in 0..iterations {
        acc.iter_mut().for_each(|a| *a = 0.0);
        for e in edges {
            acc[e.dst as usize] += rank[e.src as usize] / degree[e.src as usize] as f64;
        }
        for (r, a) in rank.iter_mut().zip(&acc) {
            *r = (1.0 - DAMPING) / n as f64 + DAMPING * a;
        }
    }
    rank
}

/// The vertex with the largest out-degree (smallest id on ties): the
/// BFS root of the batch workloads.
pub fn max_out_degree_vertex(num_vertices: usize, edges: &[Edge]) -> u32 {
    let mut degree = vec![0u32; num_vertices];
    for e in edges {
        degree[e.src as usize] += 1;
    }
    let mut best = 0;
    for (v, &d) in degree.iter().enumerate() {
        if d > degree[best] {
            best = v;
        }
    }
    best as u32
}

/// Vertices ordered by rank, descending (vertex id ascending on ties).
pub fn top_vertices(rank: &[f64], k: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..rank.len() as u32).collect();
    order.sort_by(|&a, &b| {
        rank[b as usize]
            .total_cmp(&rank[a as usize])
            .then(a.cmp(&b))
    });
    order.truncate(k);
    order
}

/// Whether an engine rank is within tolerance of the oracle rank.
pub fn rank_close(engine: f64, oracle: f64) -> bool {
    (engine - oracle).abs() <= RANK_RTOL * oracle.abs().max(f64::MIN_POSITIVE)
}

/// Checks an engine's full rank vector: every rank within tolerance and
/// the same top vertex (up to a tie within tolerance).
pub fn check_ranks(engine: &[f32], oracle: &[f64]) -> Result<(), String> {
    if engine.len() != oracle.len() {
        return Err(format!("{} ranks, expected {}", engine.len(), oracle.len()));
    }
    if let Some(v) = (0..oracle.len()).find(|&v| !rank_close(engine[v] as f64, oracle[v])) {
        return Err(format!(
            "rank of vertex {v} is {}, oracle {}",
            engine[v], oracle[v]
        ));
    }
    let top = top_vertices(oracle, 1)[0] as usize;
    let engine_top = (0..engine.len())
        .max_by(|&a, &b| engine[a].total_cmp(&engine[b]).then(b.cmp(&a)))
        .unwrap_or(0);
    if engine_top != top && !rank_close(oracle[engine_top], oracle[top]) {
        return Err(format!("top vertex {engine_top}, oracle {top}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(s: u32, d: u32, w: f32) -> Edge {
        Edge::weighted(s, d, w)
    }

    #[test]
    fn small_graph_answers() {
        let edges = [e(0, 1, 2.0), e(1, 2, 2.0), e(0, 2, 5.0), e(3, 4, 1.0)];
        let csr = Csr::new(6, &edges);
        assert_eq!(csr.bfs(0), vec![0, 1, 1, UNREACHED, UNREACHED, UNREACHED]);
        let d = csr.dijkstra(0);
        assert_eq!(&d[..3], &[0.0, 2.0, 4.0]);
        assert!(d[3].is_infinite());
        let labels = components(6, &edges);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(count_components(&labels), 3);
        assert_eq!(max_out_degree_vertex(6, &edges), 0);
        let r = pagerank(6, &edges, 5);
        assert!(r[2] > r[1] && r[1] > r[0]);
    }
}
