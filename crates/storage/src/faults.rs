//! Deterministic I/O fault injection for the stream store.
//!
//! A [`FaultPlan`] is a fixed list of [`FaultSpec`]s — *inject fault
//! kind K at the Nth operation of type O on streams whose name starts
//! with P* — installed on a `StreamStore` at build time and consulted
//! by every read, write, flush and truncate path. The plan is
//! deterministic (no clocks, no global RNG): the same plan over the
//! same workload fires at exactly the same operations, which is what
//! makes the retry/recovery tests reproducible.
//!
//! Design constraints, in order:
//!
//! * **Zero overhead when absent.** The store holds an
//!   `Option<Arc<FaultPlan>>`; the disabled path is a single `None`
//!   check that the branch predictor eats. No allocation either way.
//! * **Disarmed by default.** Operations are not even counted until
//!   [`FaultPlan::arm`] is called, so engine construction and graph
//!   ingest run untouched and tests can aim faults at steady-state
//!   supersteps only.
//! * **Transient specs fire once.** A spec that fired stays spent, so
//!   a retried operation succeeds — modelling a transient error, and
//!   letting tests assert the retry path actually recovered. Inject
//!   several specs to model repeated faults.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The I/O operation class a [`FaultSpec`] intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Stream reads: one consult per I/O-unit piece of every
    /// `StreamStore` read (whole-stream, ranged and read-ahead alike
    /// go through one fill routine).
    Read,
    /// Stream appends, including the async writer's device threads
    /// (which go through `StreamStore::append`).
    Write,
    /// Writer flush barriers (`AsyncWriter::flush`).
    Flush,
    /// Stream truncation (`StreamStore::truncate`).
    Truncate,
}

/// What the injected fault looks like to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient error (`ErrorKind::TimedOut`): the class the engine
    /// is expected to retry through.
    Transient,
    /// A permanent error (`ErrorKind::PermissionDenied`): must fail
    /// fast, no retry.
    Permanent,
    /// Device full (`ENOSPC`, raw os error 28): permanent by
    /// classification, the canonical fail-fast case of the paper's
    /// out-of-core regime.
    Enospc,
    /// Deliver fewer bytes than asked on a read. The storage layer's
    /// fill loops must complete the operation anyway; tests use this
    /// to prove short reads never tear records.
    ShortRead,
    /// The syscall "succeeds" but one byte of the payload is flipped —
    /// silent corruption, invisible to errno-level retry machinery.
    /// Only checksum verification on the read path can catch it; tests
    /// use this to prove detection end-to-end at every read boundary.
    BitFlip,
}

/// One planned fault: fire `kind` at the `nth` armed operation of type
/// `op` on any stream whose name starts with `stream_prefix` (empty
/// prefix matches every stream).
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Stream-name prefix filter (`"edges."`, `"updates.3"`, `""`).
    pub stream_prefix: String,
    /// Operation class to intercept.
    pub op: FaultOp,
    /// Zero-based index among matching armed operations at which the
    /// fault fires (0 = the very next matching op).
    pub nth: u64,
    /// The fault to deliver.
    pub kind: FaultKind,
}

/// Per-spec runtime state: how many matching ops have been seen and
/// whether the spec already fired.
#[derive(Debug, Default)]
struct SpecState {
    seen: AtomicU64,
    fired: AtomicBool,
}

/// What [`FaultPlan::check`] told the intercepted operation to do.
#[derive(Debug)]
pub enum FaultOutcome {
    /// No fault here; proceed normally.
    Pass,
    /// Fail the operation with this error.
    Error(io::Error),
    /// Deliver a short read (read paths only; other ops treat it as
    /// [`FaultOutcome::Pass`]).
    ShortRead,
    /// Complete the operation normally but flip one byte of the
    /// payload afterwards (read paths only; other ops treat it as
    /// [`FaultOutcome::Pass`]).
    BitFlip,
}

/// A deterministic set of planned I/O faults shared by every handle of
/// one `StreamStore`. See the module docs for semantics.
#[derive(Debug)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    state: Vec<SpecState>,
    armed: AtomicBool,
}

impl FaultPlan {
    /// Builds a plan from explicit specs. Starts **disarmed**: call
    /// [`arm`](Self::arm) once the workload reaches the phase under
    /// test.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        let state = specs.iter().map(|_| SpecState::default()).collect();
        Self {
            specs,
            state,
            armed: AtomicBool::new(false),
        }
    }

    /// Builds a pseudo-random plan of `n` transient faults from `seed`
    /// (xorshift64*, no external RNG): random op class, random stream
    /// family, random position within the first 64 matching ops. Used
    /// by the chaos tests — deterministic for a given seed.
    pub fn seeded(seed: u64, n: usize) -> Self {
        let mut x = seed.max(1);
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let specs = (0..n)
            .map(|_| {
                let op = match next() % 3 {
                    0 => FaultOp::Read,
                    1 => FaultOp::Write,
                    _ => FaultOp::Flush,
                };
                let prefix = match next() % 3 {
                    0 => "edges.",
                    1 => "updates.",
                    _ => "",
                };
                FaultSpec {
                    stream_prefix: prefix.to_string(),
                    op,
                    nth: next() % 64,
                    kind: FaultKind::Transient,
                }
            })
            .collect();
        Self::new(specs)
    }

    /// Starts counting operations and firing faults.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops firing (and counting) without resetting spec state.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Number of specs that have fired so far.
    pub fn fired_count(&self) -> u64 {
        self.state
            .iter()
            .filter(|s| s.fired.load(Ordering::Relaxed))
            .count() as u64
    }

    /// Consulted by the storage layer before performing operation `op`
    /// on stream `stream`. Counts the op against every matching spec
    /// and returns the first spec that reaches its trigger point.
    pub fn check(&self, stream: &str, op: FaultOp) -> FaultOutcome {
        if !self.armed.load(Ordering::Relaxed) {
            return FaultOutcome::Pass;
        }
        for (spec, state) in self.specs.iter().zip(&self.state) {
            if spec.op != op || !stream.starts_with(spec.stream_prefix.as_str()) {
                continue;
            }
            let seen = state.seen.fetch_add(1, Ordering::SeqCst);
            if seen == spec.nth && !state.fired.swap(true, Ordering::SeqCst) {
                return match spec.kind {
                    FaultKind::Transient => FaultOutcome::Error(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("injected transient fault: {op:?} on {stream}"),
                    )),
                    FaultKind::Permanent => FaultOutcome::Error(io::Error::new(
                        io::ErrorKind::PermissionDenied,
                        format!("injected permanent fault: {op:?} on {stream}"),
                    )),
                    FaultKind::Enospc => FaultOutcome::Error(io::Error::from_raw_os_error(28)),
                    FaultKind::ShortRead => FaultOutcome::ShortRead,
                    FaultKind::BitFlip => FaultOutcome::BitFlip,
                };
            }
        }
        FaultOutcome::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(prefix: &str, op: FaultOp, nth: u64, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            stream_prefix: prefix.to_string(),
            op,
            nth,
            kind,
        }
    }

    #[test]
    fn disarmed_plan_never_fires_or_counts() {
        let plan = FaultPlan::new(vec![spec("", FaultOp::Read, 0, FaultKind::Transient)]);
        for _ in 0..10 {
            assert!(matches!(
                plan.check("edges.0", FaultOp::Read),
                FaultOutcome::Pass
            ));
        }
        // Arming afterwards: the 10 disarmed ops were not counted, so
        // the very next op is still "the 0th".
        plan.arm();
        assert!(matches!(
            plan.check("edges.0", FaultOp::Read),
            FaultOutcome::Error(_)
        ));
    }

    #[test]
    fn nth_counting_and_prefix_filtering() {
        let plan = FaultPlan::new(vec![spec(
            "updates.",
            FaultOp::Write,
            2,
            FaultKind::Transient,
        )]);
        plan.arm();
        // Non-matching ops are ignored entirely.
        assert!(matches!(
            plan.check("edges.0", FaultOp::Write),
            FaultOutcome::Pass
        ));
        assert!(matches!(
            plan.check("updates.0", FaultOp::Read),
            FaultOutcome::Pass
        ));
        // Matching ops 0 and 1 pass, 2 fires.
        assert!(matches!(
            plan.check("updates.0", FaultOp::Write),
            FaultOutcome::Pass
        ));
        assert!(matches!(
            plan.check("updates.1", FaultOp::Write),
            FaultOutcome::Pass
        ));
        let out = plan.check("updates.1", FaultOp::Write);
        match out {
            FaultOutcome::Error(e) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(plan.fired_count(), 1);
    }

    #[test]
    fn specs_fire_exactly_once() {
        let plan = FaultPlan::new(vec![spec("", FaultOp::Flush, 0, FaultKind::Transient)]);
        plan.arm();
        assert!(matches!(
            plan.check("", FaultOp::Flush),
            FaultOutcome::Error(_)
        ));
        for _ in 0..5 {
            assert!(matches!(plan.check("", FaultOp::Flush), FaultOutcome::Pass));
        }
    }

    #[test]
    fn fault_kinds_map_to_expected_errors() {
        let plan = FaultPlan::new(vec![
            spec("a", FaultOp::Read, 0, FaultKind::Permanent),
            spec("b", FaultOp::Read, 0, FaultKind::Enospc),
            spec("c", FaultOp::Read, 0, FaultKind::ShortRead),
            spec("d", FaultOp::Read, 0, FaultKind::BitFlip),
        ]);
        plan.arm();
        match plan.check("a", FaultOp::Read) {
            FaultOutcome::Error(e) => assert_eq!(e.kind(), io::ErrorKind::PermissionDenied),
            other => panic!("{other:?}"),
        }
        match plan.check("b", FaultOp::Read) {
            FaultOutcome::Error(e) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            plan.check("c", FaultOp::Read),
            FaultOutcome::ShortRead
        ));
        assert!(matches!(
            plan.check("d", FaultOp::Read),
            FaultOutcome::BitFlip
        ));
        assert_eq!(plan.fired_count(), 4);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 8);
        let b = FaultPlan::seeded(42, 8);
        assert_eq!(a.specs.len(), 8);
        for (x, y) in a.specs.iter().zip(&b.specs) {
            assert_eq!(x.stream_prefix, y.stream_prefix);
            assert_eq!(x.op, y.op);
            assert_eq!(x.nth, y.nth);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.kind, FaultKind::Transient);
        }
    }
}
