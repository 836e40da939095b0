//! BLASYS: approximate logic synthesis using Boolean matrix
//! factorization — the core algorithm of Hashemi, Tann & Reda
//! (DAC 2018).
//!
//! The flow mirrors the paper's Algorithm 1:
//!
//! 1. **decompose** the circuit into k×m-cut subcircuits
//!    (`blasys-decomp`);
//! 2. **profile** every subcircuit: extract its truth table and
//!    factorize it at every degree `f = 1 .. m−1` with ASSO
//!    (`blasys-bmf`), synthesizing the compressor/decompressor
//!    variants (`blasys-synth`) — [`profile`];
//! 3. **explore**: starting from the exact circuit, repeatedly
//!    decrement the factorization degree of the subcircuit whose
//!    approximation hurts whole-circuit QoR least, measured by
//!    Monte-Carlo simulation — [`explore`] / [`montecarlo`]. QoR
//!    accumulation is a packed incremental engine (PO-cone caching,
//!    64×64 bit transpose, bound-pruned probes — see the
//!    [`montecarlo`] module docs), and both profiling and the
//!    per-step candidate sweep run on the `blasys-par` work-stealing
//!    pool (see [`Parallelism`] and [`flow::Blasys::parallelism`]);
//!    results are bit-identical at any worker count, with pruning on
//!    or off;
//! 4. **synthesize** the chosen configuration into a gate-level
//!    netlist and measure area / power / delay — [`flow`];
//! 5. **certify** (optional, beyond the paper): upgrade the sampled
//!    error estimates to proofs with the `blasys-sat` CDCL engine —
//!    [`certify`].
//!
//! # The certification pass
//!
//! Steps 1–4 rest on *statistical* evidence: QoR is Monte-Carlo
//! sampled ([`montecarlo`]) and the recorded `worst_absolute` is only
//! the largest error that happened to be sampled. The certification
//! pass replaces that with formal results:
//!
//! * [`BlasysResult::certify_step`](flow::BlasysResult::certify_step)
//!   computes the **exact** worst-case absolute error of a synthesized
//!   trajectory point — a binary search where each probe asks a CDCL
//!   SAT solver whether `∃ input: |R − R'| ≥ T` on an arithmetic
//!   comparator miter — and stamps it into the point's
//!   [`QorReport::certified_worst_absolute`](qor::QorReport). The
//!   returned [`CertifiedPoint`] carries a witness input achieving the
//!   bound;
//! * [`BlasysResult::prove_step_exact`](flow::BlasysResult::prove_step_exact)
//!   proves a step functionally identical to the original at **any**
//!   input width (step 0, the exact resynthesis, is the interesting
//!   case: simulation can only say "probably equal" past 16 inputs);
//! * [`Blasys::certify`](flow::Blasys::certify) runs the pass on the
//!   final trajectory point automatically at the end of
//!   [`Blasys::run`](flow::Blasys::run).
//!
//! # Example
//!
//! ```
//! use blasys_core::{Blasys, QorMetric};
//! use blasys_logic::builder::{add, input_bus, mark_output_bus};
//! use blasys_logic::Netlist;
//!
//! let mut nl = Netlist::new("add8");
//! let a = input_bus(&mut nl, "a", 8);
//! let b = input_bus(&mut nl, "b", 8);
//! let s = add(&mut nl, &a, &b);
//! mark_output_bus(&mut nl, "s", &s);
//!
//! let result = Blasys::new()
//!     .samples(2048)
//!     .run(&nl);
//! // The trajectory walks from the exact design toward maximum
//! // approximation; error grows, modeled area shrinks.
//! assert!(result.trajectory().len() > 1);
//! ```
//!
//! # Sessions: profile once, explore many times
//!
//! [`Blasys`] reruns the whole pipeline per call. When several
//! explorations of the **same circuit** are needed — different
//! metrics, thresholds, prune settings — open a staged
//! [`FlowSession`] instead: decomposition, the
//! per-window BMF profiles, the Monte-Carlo stimulus, and the worker
//! pool are built once and shared by every
//! [`explore`](session::FlowSession::explore) call, each of which is
//! bit-identical to a fresh one-shot flow. Sessions also stream
//! progress ([`FlowObserver`]), stop
//! cooperatively ([`CancelToken`]), and respect
//! probe/wall budgets ([`Budget`]):
//!
//! ```
//! use blasys_core::session::{ExploreSpec, FlowConfig, FlowSession};
//! use blasys_core::{FlowError, QorMetric};
//! use blasys_circuits::multiplier;
//!
//! # fn main() -> Result<(), FlowError> {
//! let nl = multiplier(3);
//! let session = FlowSession::open(&nl, FlowConfig::new().samples(512))?.profile()?;
//! let strict = session.explore(&ExploreSpec::new().threshold(0.02));
//! let by_bits = session.explore(
//!     &ExploreSpec::new().metric(QorMetric::BitErrorRate).threshold(0.05),
//! );
//! // Each exploration packages into a full result on demand.
//! let result = session.result(&strict);
//! assert_eq!(result.trajectory().len(), strict.trajectory().len());
//! # let _ = by_bits;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod approx;
pub mod certify;
pub mod explore;
pub mod flow;
pub mod montecarlo;
pub mod obs;
pub mod pareto;
pub mod profile;
pub mod qor;
pub mod report;
pub mod session;

pub use blasys_lint as lint;
pub use blasys_par::{Parallelism, Pool};
pub use certify::{prove_exact, CertifiedPoint};
pub use explore::{AnnealSchedule, ExploreConfig, Explorer, StopCriterion, TrajectoryPoint};
pub use flow::{Blasys, BlasysResult, FlowError};
pub use montecarlo::{Evaluator, McConfig, ProbeState, Signal, TableNetwork};
pub use obs::{Observers, QorCounters, TraceObserver};
pub use profile::{profile_partition, SubcircuitProfile, Variant};
pub use qor::{QorMetric, QorReport};
pub use report::{
    diagnostic_json, diagnostics_json, snapshot_json, stop_reason_name, FlowReport, Json,
};
pub use session::{
    Budget, CancelToken, Exploration, ExploreSpec, FlowConfig, FlowObserver, FlowSession,
    FlowStage, StopReason,
};
