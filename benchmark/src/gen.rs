//! Seeded inputs: the RMAT graph and the serve query streams.
//!
//! The generator lives in the benchmark rather than calling
//! `xstream_graph::Rmat`, so a change to the program's own generator
//! can never change the benchmark's inputs. The program only ever sees
//! the `.xse` file written here and the query lines sent to the server.

use std::path::Path;

use xstream_core::Edge;
use xstream_graph::fileio::EdgeFileWriter;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// A derived stream, independent of the parent for practical
    /// purposes (used for per-client query streams).
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Self::new(seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by the multiply-shift reduction.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A generated graph, kept in memory only long enough to write the
/// file and compute the oracle.
pub struct Graph {
    pub num_vertices: usize,
    pub edges: Vec<Edge>,
}

/// RMAT (Graph500 quadrant probabilities 0.57/0.19/0.19/0.05) with
/// `16 * 2^scale` directed edges, vertex ids randomly permuted so hubs
/// are spread over partitions, and integer weights 1..=8 so SSSP
/// distances are exact in `f32`.
pub fn rmat(scale: u32, seed: u64) -> Graph {
    let n = 1usize << scale;
    let m = n * 16;
    // Quadrant thresholds on a 32-bit draw: A, A+B, A+B+C.
    let t_a = (0.57 * 4_294_967_296.0) as u64;
    let t_ab = (0.76 * 4_294_967_296.0) as u64;
    let t_abc = (0.95 * 4_294_967_296.0) as u64;
    let mut rng = Rng::new(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut src, mut dst) = (0u32, 0u32);
        let mut bits = 0u32;
        let mut word = 0u64;
        for level in 0..scale {
            if bits == 0 {
                word = rng.next_u64();
                bits = 2;
            }
            let r = word & 0xffff_ffff;
            word >>= 32;
            bits -= 1;
            let bit = 1u32 << (scale - 1 - level);
            if r < t_a {
            } else if r < t_ab {
                dst |= bit;
            } else if r < t_abc {
                src |= bit;
            } else {
                src |= bit;
                dst |= bit;
            }
        }
        let weight = (1 + rng.below(8)) as f32;
        edges.push(Edge::weighted(src, dst, weight));
    }
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for e in &mut edges {
        e.src = perm[e.src as usize];
        e.dst = perm[e.dst as usize];
    }
    Graph {
        num_vertices: n,
        edges,
    }
}

/// Writes `g` as an `.xse` file through the program's own writer.
pub fn write_xse(path: &Path, g: &Graph) -> Result<(), String> {
    let mut w = EdgeFileWriter::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    w.append(&g.edges)
        .and_then(|()| w.finish(Some(g.num_vertices)).map(drop))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One serve query, as the client sends it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    Bfs { root: u32, target: u32 },
    Sssp { root: u32, target: u32 },
    Reach { src: u32, dst: u32 },
    SameComponent { u: u32, v: u32 },
    PagerankTop { k: usize },
}

/// Query families in reporting order (the `server.<family>.*` names).
pub const FAMILIES: [&str; 5] = ["bfs", "sssp", "reach", "same-component", "pagerank"];

impl Query {
    /// Draws one query of the fixed mix: bfs 40%, sssp 20%, reach 15%,
    /// same-component 15%, pagerank top-5 10%; vertex ids uniform.
    pub fn draw(rng: &mut Rng, num_vertices: usize) -> Query {
        let n = num_vertices as u64;
        let mut v = || rng.below(n) as u32;
        let (a, b) = (v(), v());
        match rng.below(100) {
            0..=39 => Query::Bfs { root: a, target: b },
            40..=59 => Query::Sssp { root: a, target: b },
            60..=74 => Query::Reach { src: a, dst: b },
            75..=89 => Query::SameComponent { u: a, v: b },
            _ => Query::PagerankTop { k: 5 },
        }
    }

    /// Index into [`FAMILIES`].
    pub fn family(&self) -> usize {
        match self {
            Query::Bfs { .. } => 0,
            Query::Sssp { .. } => 1,
            Query::Reach { .. } => 2,
            Query::SameComponent { .. } => 3,
            Query::PagerankTop { .. } => 4,
        }
    }

    /// The request line (without the newline).
    pub fn line(&self) -> String {
        match *self {
            Query::Bfs { root, target } => {
                format!(r#"{{"op":"bfs","root":{root},"target":{target}}}"#)
            }
            Query::Sssp { root, target } => {
                format!(r#"{{"op":"sssp","root":{root},"target":{target}}}"#)
            }
            Query::Reach { src, dst } => format!(r#"{{"op":"reach","src":{src},"dst":{dst}}}"#),
            Query::SameComponent { u, v } => {
                format!(r#"{{"op":"same-component","u":{u},"v":{v}}}"#)
            }
            Query::PagerankTop { k } => format!(r#"{{"op":"pagerank","k":{k}}}"#),
        }
    }
}
