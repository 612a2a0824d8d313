//! The edge-centric scatter-gather programming model (paper Fig. 2).
//!
//! Unlike vertex-centric APIs, the scatter function receives one *edge*
//! (plus the state of its source vertex) and the gather function one
//! *update* (plus the state of its destination vertex). Neither can
//! iterate over the edges of a vertex — that restriction is exactly what
//! allows the engines to stream completely unordered edge lists.

use crate::record::Record;
use crate::types::{Edge, VertexId};

/// An update addressed to a destination vertex.
///
/// The engines route updates to the streaming partition containing
/// `target` during the shuffle phase; `payload` is opaque to them.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct TargetedUpdate<U> {
    /// Destination vertex of the update.
    pub target: VertexId,
    /// Algorithm-specific value.
    pub payload: U,
}

// SAFETY: `repr(C)` of (u32, U). With `U: Record` (padding-free, align
// <= 4 enforced by the assertion in `TargetedUpdate::new` debug builds
// being absent — alignment of U > 4 would introduce padding after
// `target`, so we statically require align_of::<U>() <= 4 in `new`).
// All algorithm payloads in this workspace are u32/f32 tuples or arrays
// with alignment 4 and size a multiple of 4, hence no padding.
unsafe impl<U: Record> Record for TargetedUpdate<U> {}

impl<U: Record> TargetedUpdate<U> {
    /// Compile-time guard: a payload with alignment above 4 would cause
    /// padding after the 4-byte `target` field, violating [`Record`].
    const PAYLOAD_ALIGN_OK: () = assert!(
        core::mem::align_of::<U>() <= 4,
        "TargetedUpdate payloads must have alignment <= 4 to stay padding-free"
    );

    /// Creates an update addressed at `target`.
    #[inline]
    pub fn new(target: VertexId, payload: U) -> Self {
        // Force the const assertion to be evaluated for each payload type.
        let () = Self::PAYLOAD_ALIGN_OK;
        Self { target, payload }
    }
}

/// A graph computation expressed in the edge-centric scatter-gather
/// model.
///
/// The computation state lives in one `State` value per vertex. Each
/// synchronous iteration streams all edges through [`scatter`]
/// (producing updates) and then all updates through [`gather`]
/// (mutating destination state). All updates from a scatter phase are
/// observed only after the scatter completes, as in Pregel.
///
/// [`scatter`]: EdgeProgram::scatter
/// [`gather`]: EdgeProgram::gather
pub trait EdgeProgram: Sync {
    /// Per-vertex mutable state ("the data field of each vertex").
    type State: Record;
    /// Payload carried by updates from source to destination.
    type Update: Record;

    /// Produces the initial state of vertex `v`.
    fn init(&self, v: VertexId) -> Self::State;

    /// Edge-centric scatter: given the state of `e.src`, decides whether
    /// an update must be sent over `e` and, if so, its payload.
    ///
    /// Returning `None` counts the edge as *wasted* streaming bandwidth
    /// in the engine statistics (paper Fig. 12b).
    fn scatter(&self, src_state: &Self::State, e: &Edge) -> Option<Self::Update>;

    /// Edge-centric gather: applies `payload` to the state of the
    /// destination vertex. Returns `true` if the state changed; engines
    /// use this for convergence detection.
    fn gather(&self, dst_state: &mut Self::State, payload: &Self::Update) -> bool;

    /// Fast pre-check on the source state, consulted before `scatter`.
    ///
    /// The engine still streams every edge (that is the design trade-off
    /// of X-Stream) but a `false` here lets it skip the scatter call.
    /// The default scatters unconditionally.
    #[inline]
    fn needs_scatter(&self, _src_state: &Self::State) -> bool {
        true
    }

    /// Opt-in to frontier tracking (Ligra-hybrid scatter skipping).
    ///
    /// Returning [`FrontierMode::Tracked`](crate::frontier::FrontierMode::Tracked) asserts the contract that
    /// makes skipping bitwise-equivalent to dense streaming: **a vertex
    /// satisfies [`needs_scatter`] in superstep `t + 1` if and only if
    /// [`gather`] reported its state changed in superstep `t`** (and,
    /// immediately after a `vertex_map` or initialization, iff
    /// [`needs_scatter`] holds on its current state — engines rebuild
    /// the frontier from a state scan at those points). The round-
    /// counter programs (BFS, SSSP, WCC, PageRank-delta) satisfy this
    /// by construction: gather stamps `active_round = round + 1` on
    /// every change and the driver bumps `round` between supersteps.
    ///
    /// The default is [`FrontierMode::Dense`](crate::frontier::FrontierMode::Dense): the engines never build
    /// a frontier and every partition is streamed in full, exactly as
    /// without this extension.
    ///
    /// [`needs_scatter`]: EdgeProgram::needs_scatter
    /// [`gather`]: EdgeProgram::gather
    #[inline]
    fn frontier_mode(&self) -> crate::frontier::FrontierMode {
        crate::frontier::FrontierMode::Dense
    }
}

/// The per-edge scatter core both engines run (§4.3: the out-of-core
/// engine applies the in-memory engine's primitives to loaded chunks).
///
/// Streams `edges` through [`EdgeProgram::needs_scatter`] and
/// [`EdgeProgram::scatter`], handing every produced update to `emit`.
/// `states[i]` is the state of vertex `base + i`; every edge's source
/// must lie in that window. Returns the number of updates emitted.
#[inline]
pub fn scatter_edges<P: EdgeProgram>(
    program: &P,
    states: &[P::State],
    base: usize,
    edges: impl IntoIterator<Item = Edge>,
    mut emit: impl FnMut(TargetedUpdate<P::Update>),
) -> u64 {
    let mut generated = 0;
    for e in edges {
        let src_state = &states[e.src as usize - base];
        if !program.needs_scatter(src_state) {
            continue;
        }
        if let Some(u) = program.scatter(src_state, &e) {
            emit(TargetedUpdate::new(e.dst, u));
            generated += 1;
        }
    }
    generated
}

/// The per-update gather core both engines run.
///
/// Applies `updates` — all addressed to partition `p` — to `states`,
/// where `states[i]` is the state of vertex `base + i`. Every vertex
/// whose state changed is marked in `next_frontier`, if given: the
/// [`FrontierMode::Tracked`](crate::frontier::FrontierMode::Tracked)
/// contract makes it exactly a vertex that must scatter next
/// superstep. Returns `(applied, changed)`: updates applied and gather
/// calls that reported a change.
#[inline]
pub fn gather_updates<P: EdgeProgram>(
    program: &P,
    states: &mut [P::State],
    base: usize,
    p: usize,
    updates: impl IntoIterator<Item = TargetedUpdate<P::Update>>,
    next_frontier: Option<&crate::frontier::Frontier>,
) -> (u64, u64) {
    let (mut applied, mut changed) = (0, 0);
    for u in updates {
        applied += 1;
        if program.gather(&mut states[u.target as usize - base], &u.payload) {
            changed += 1;
            if let Some(nf) = next_frontier {
                nf.mark(u.target, p);
            }
        }
    }
    (applied, changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_update_is_packed() {
        assert_eq!(core::mem::size_of::<TargetedUpdate<u32>>(), 8);
        assert_eq!(core::mem::size_of::<TargetedUpdate<[f32; 3]>>(), 16);
    }

    struct Prop;

    impl EdgeProgram for Prop {
        type State = u32;
        type Update = u32;

        fn init(&self, v: VertexId) -> u32 {
            v
        }

        fn scatter(&self, s: &u32, _e: &Edge) -> Option<u32> {
            if *s > 0 {
                Some(*s)
            } else {
                None
            }
        }

        fn gather(&self, d: &mut u32, u: &u32) -> bool {
            if *u < *d {
                *d = *u;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn program_contract() {
        let p = Prop;
        let mut s = p.init(9);
        let e = Edge::new(3, 9);
        let u = p.scatter(&p.init(3), &e).unwrap();
        assert!(p.gather(&mut s, &u));
        assert_eq!(s, 3);
        assert!(!p.gather(&mut s, &u));
    }
}
