//! End-to-end BLASYS flow: decompose → profile → explore → synthesize.

use std::sync::Arc;

use blasys_bmf::{Algebra, Factorizer};
use blasys_decomp::{decompose, substitute, ClusterImpl, DecompConfig, Partition};
use blasys_lint::Diagnostic;
use blasys_logic::Netlist;
use blasys_par::Parallelism;
use blasys_synth::estimate::{estimate, EstimateConfig};
use blasys_synth::{CellLibrary, DesignMetrics};

use crate::certify::{prove_exact, CertifiedPoint};
use crate::explore::{StopCriterion, TrajectoryPoint};
use crate::profile::{profile_partition, ProfileConfig, SubcircuitProfile};
use crate::qor::QorMetric;
use crate::session::{ExploreSpec, FlowConfig, FlowObserver, FlowSession};

/// How per-cluster output weights are derived for weighted-QoR
/// factorization (Section 3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputWeighting {
    /// Uniform weights — standard L2 / Hamming BMF ("UQoR" in Fig. 4).
    #[default]
    Uniform,
    /// Weight each subcircuit output by the numerical significance of
    /// the primary-output bits it can reach (powers of two, the
    /// paper's "WQoR" scheme generalized to internal signals).
    ValueInfluence,
}

/// Builder-style front-end for the complete BLASYS flow.
///
/// `Blasys` is a thin facade over the staged session API: every run
/// opens a [`FlowSession`], profiles it, and performs exactly one
/// exploration — so one-shot results are bit-identical to the
/// equivalent [`FlowSession`] calls. Use the session directly when
/// several explorations of the same circuit are needed (see
/// [`crate::session`]).
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Blasys {
    config: FlowConfig,
    spec: ExploreSpec,
    certify: bool,
}

impl Default for Blasys {
    fn default() -> Blasys {
        Blasys::new()
    }
}

impl Blasys {
    /// Paper defaults: k = m = 10 decomposition, ASSO with threshold
    /// sweep, OR semi-ring, uniform weights, average relative error,
    /// exhaustive trajectory.
    pub fn new() -> Blasys {
        Blasys {
            config: FlowConfig::new(),
            spec: ExploreSpec::new(),
            certify: false,
        }
    }

    /// Worker threads for the flow's parallel phases (window profiling
    /// and the exploration candidate sweep). The default honors the
    /// `BLASYS_THREADS` environment variable (unset → serial). Results
    /// are **bit-identical** at every setting; only wall-clock time
    /// changes.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Blasys {
        self.config = self.config.parallelism(parallelism);
        self
    }

    /// Attach a [`FlowObserver`] streaming stage, per-window, and
    /// per-trajectory-point progress out of the run. Takes any
    /// observer by value — pass an `Arc<O>` clone to keep a readable
    /// handle (see [`FlowConfig::observer`]).
    pub fn observer(mut self, observer: impl FlowObserver + 'static) -> Blasys {
        self.config = self.config.observer(observer);
        self
    }

    /// Attach a metrics registry collecting `flow.*`, `qor.*`, and
    /// `pool.*` counters over the run (see [`FlowConfig::metrics`]).
    pub fn metrics(mut self, registry: Arc<blasys_obs::Registry>) -> Blasys {
        self.config = self.config.metrics(registry);
        self
    }

    /// Run the post-exploration certification pass as part of
    /// [`Blasys::run`]: the final trajectory point's worst-case
    /// absolute error is certified exactly with the SAT engine and
    /// stamped into its [`QorReport`](crate::qor::QorReport) (see
    /// [`BlasysResult::certify_step`] for certifying other steps).
    ///
    /// # Examples
    ///
    /// The certificate always dominates the sampled bound
    /// (`examples/approximate_multiplier.rs` validates designs this
    /// way before trusting them on a workload):
    ///
    /// ```
    /// use blasys_circuits::multiplier;
    /// use blasys_core::Blasys;
    ///
    /// let nl = multiplier(2);
    /// let result = Blasys::new().samples(512).certify(true).run(&nl);
    /// let last = result.trajectory().last().unwrap();
    /// let certified = last.qor.certified_worst_absolute.unwrap();
    /// assert!(certified >= last.qor.worst_absolute);
    /// ```
    pub fn certify(mut self, certify: bool) -> Blasys {
        self.certify = certify;
        self
    }

    /// Provide explicit Monte-Carlo stimulus (`stimulus[input][block]`,
    /// 64 samples per block) instead of uniform random inputs. Use for
    /// workloads whose input distribution matters (e.g. accumulators).
    pub fn stimulus(mut self, stimulus: Vec<Vec<u64>>) -> Blasys {
        self.config = self.config.stimulus(stimulus);
        self
    }

    /// Disable the hybrid ASSO/GreConD per-variant selection (pure
    /// configured factorizer, as an ablation).
    pub fn hybrid(mut self, hybrid: bool) -> Blasys {
        self.config = self.config.hybrid(hybrid);
        self
    }

    /// Bound-pruned candidate probes during exploration (on by
    /// default): abandon a candidate's Monte-Carlo evaluation
    /// block-wise once its partial error provably exceeds the best
    /// candidate seen this step. The committed trajectory is
    /// **bit-identical** with pruning on or off — only wall-clock
    /// changes (see
    /// [`ExploreConfig::prune`](crate::explore::ExploreConfig::prune)).
    pub fn prune(mut self, prune: bool) -> Blasys {
        self.spec.prune = prune;
        self
    }

    /// Select the exploration engine (greedy by default; see
    /// [`Explorer`](crate::explore::Explorer) for beam search,
    /// simulated annealing, and the 3-D Pareto mode).
    pub fn explorer(mut self, explorer: crate::explore::Explorer) -> Blasys {
        self.spec.explorer = explorer;
        self
    }

    /// Set the decomposition limits `k × m`.
    pub fn limits(mut self, k: usize, m: usize) -> Blasys {
        self.config = self.config.limits(k, m);
        self
    }

    /// Set the full decomposition configuration.
    pub fn decomposition(mut self, cfg: DecompConfig) -> Blasys {
        self.config = self.config.decomposition(cfg);
        self
    }

    /// Number of Monte-Carlo samples (the paper uses 1 M; the default
    /// here is 10 k — raise it for final numbers).
    pub fn samples(mut self, samples: usize) -> Blasys {
        self.config = self.config.samples(samples);
        self
    }

    /// RNG seed for the Monte-Carlo stimulus.
    pub fn seed(mut self, seed: u64) -> Blasys {
        self.config = self.config.seed(seed);
        self
    }

    /// Stop at this error threshold instead of walking the full
    /// trajectory.
    pub fn threshold(mut self, threshold: f64) -> Blasys {
        self.spec.stop = StopCriterion::ErrorThreshold(threshold);
        self
    }

    /// Walk the full trajectory regardless of error (Figure 5 mode).
    pub fn exhaust(mut self) -> Blasys {
        self.spec.stop = StopCriterion::Exhaust;
        self
    }

    /// The metric driving exploration and thresholds.
    pub fn metric(mut self, metric: QorMetric) -> Blasys {
        self.spec.metric = metric;
        self
    }

    /// OR-semi-ring vs XOR-field decompressors.
    pub fn algebra(mut self, algebra: Algebra) -> Blasys {
        self.config = self.config.algebra(algebra);
        self
    }

    /// Replace the factorizer wholesale (algorithm, thresholds, ...).
    pub fn factorizer(mut self, factorizer: Factorizer) -> Blasys {
        self.config = self.config.factorizer(factorizer);
        self
    }

    /// Select the weighted-QoR scheme.
    ///
    /// # Examples
    ///
    /// Weighting factorization errors by output significance (the
    /// paper's WQoR, compared against UQoR in
    /// `examples/weighted_qor.rs`):
    ///
    /// ```
    /// use blasys_circuits::multiplier;
    /// use blasys_core::flow::OutputWeighting;
    /// use blasys_core::Blasys;
    ///
    /// let result = Blasys::new()
    ///     .samples(512)
    ///     .weighting(OutputWeighting::ValueInfluence)
    ///     .run(&multiplier(2));
    /// assert_eq!(result.trajectory()[0].qor.avg_relative, 0.0);
    /// ```
    pub fn weighting(mut self, weighting: OutputWeighting) -> Blasys {
        self.config = self.config.weighting(weighting);
        self
    }

    /// Replace the cell library used for all estimation.
    pub fn library(mut self, library: CellLibrary) -> Blasys {
        self.config = self.config.library(library);
        self
    }

    /// The session configuration this builder resolves to — pass it to
    /// [`FlowSession::open`] to profile once and explore many times.
    pub fn session_config(&self) -> FlowConfig {
        self.config.clone()
    }

    /// The per-exploration settings this builder resolves to — pass to
    /// [`FlowSession::explore`](crate::session::FlowSession::explore).
    pub fn explore_spec(&self) -> ExploreSpec {
        self.spec.clone()
    }

    /// Run the full flow on a netlist parsed from a file (or any other
    /// untrusted source), validating the interface limits that
    /// [`Blasys::run`] would otherwise turn into panics.
    ///
    /// Implemented on the staged session API: one
    /// [`FlowSession::open`] → `profile` → `explore` pass, so the
    /// result is bit-identical to the same calls made directly.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] when the netlist has no outputs, no
    /// gates to approximate, or more outputs than the 64-bit QoR value
    /// model supports.
    pub fn try_run(&self, nl: &Netlist) -> Result<BlasysResult, FlowError> {
        let session = FlowSession::open(nl, self.config.clone())?.profile()?;
        let exploration = session.explore(&self.spec);
        let mut result = session.into_result(exploration);
        if self.certify {
            let last = result.trajectory.len() - 1;
            result.certify_step(last);
        }
        Ok(result)
    }

    /// Run the full flow on a netlist — a convenience wrapper over
    /// [`Blasys::try_run`] for trusted, programmatically built
    /// circuits.
    ///
    /// # Panics
    ///
    /// Panics on any [`FlowError`] — e.g. a netlist with more than 64
    /// outputs or no gates to approximate. Use [`Blasys::try_run`] for
    /// circuits from untrusted sources (e.g. parsed BLIF files).
    pub fn run(&self, nl: &Netlist) -> BlasysResult {
        self.try_run(nl)
            .unwrap_or_else(|e| panic!("Blasys::run: {e} (use try_run to handle flow errors)"))
    }
}

/// Why a netlist cannot be driven through the flow (the checks behind
/// [`Blasys::try_run`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The netlist failed admission linting: it violates storage
    /// invariants or carries error-level defects (see the carried
    /// [`Diagnostic`]s, which name the offending signals and nodes).
    InvalidNetlist(Vec<Diagnostic>),
    /// The netlist declares no primary outputs, so there is no QoR to
    /// measure.
    NoOutputs,
    /// The netlist declares no primary inputs.
    NoInputs,
    /// The netlist contains no gates to approximate (inputs wired
    /// straight to outputs, or constants only).
    NoGates,
    /// The numeric QoR model packs outputs into a `u64` value; wider
    /// interfaces are not supported.
    TooManyOutputs {
        /// The offending output count.
        outputs: usize,
    },
    /// A [`CancelToken`](crate::session::CancelToken) was tripped
    /// while a session stage that cannot keep partial work (profiling)
    /// was running.
    Cancelled,
    /// A session stage exceeded its
    /// [`wall_budget`](crate::session::FlowConfig::wall_budget).
    BudgetExhausted,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::InvalidNetlist(diags) => {
                let msgs: Vec<String> = diags.iter().map(|d| d.message.clone()).collect();
                write!(f, "invalid netlist: {}", msgs.join("; "))
            }
            FlowError::NoOutputs => write!(f, "netlist has no primary outputs"),
            FlowError::NoInputs => write!(f, "netlist has no primary inputs"),
            FlowError::NoGates => write!(f, "netlist contains no gates to approximate"),
            FlowError::TooManyOutputs { outputs } => write!(
                f,
                "netlist has {outputs} outputs; the QoR value model supports at most 64"
            ),
            FlowError::Cancelled => write!(f, "flow cancelled before profiling completed"),
            FlowError::BudgetExhausted => {
                write!(
                    f,
                    "flow wall-clock budget exhausted before profiling completed"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// Exact resynthesis without the exploration phase: every window of
/// the decomposition replaced by its exactly resynthesized variant —
/// the netlist of trajectory step 0, produced without running the
/// Monte-Carlo evaluator. Used by the SAT benchmarks and acceptance
/// tests to obtain a structurally different but functionally identical
/// design. Profiling runs on a pool sized by `BLASYS_THREADS`.
pub fn exact_resynthesis(nl: &Netlist, decomp: &DecompConfig) -> Netlist {
    let partition = decompose(nl, decomp);
    let profiles = profile_partition(
        nl,
        &partition,
        &ProfileConfig::default(),
        &blasys_par::Pool::default(),
    );
    let impls: Vec<ClusterImpl> = profiles
        .iter()
        .map(|p| ClusterImpl::Replace(p.exact().netlist.clone()))
        .collect();
    substitute(nl, &partition, &impls).cleaned()
}

/// Per-cluster output weights: each subcircuit output is weighted by
/// the *least* significant primary-output bit it can reach (powers of
/// two, exponent capped). In an arithmetic network this is the
/// signal's numeric column: a partial-product or sum signal of column
/// `c` first influences output bit `c`, so an error on it is worth
/// about `2^c` — the paper's powers-of-two weighting generalized to
/// internal signals. (Using the *highest* reachable bit degenerates to
/// uniform weights: almost every internal signal can reach the MSB.)
pub(crate) fn influence_weights(nl: &Netlist, partition: &Partition) -> Vec<Vec<f64>> {
    const EXP_CAP: u32 = 20;
    // reach[node] = bitset of POs reachable from node.
    let mut reach = vec![0u64; nl.len()];
    for (po_idx, o) in nl.outputs().iter().enumerate() {
        reach[o.node().index()] |= 1u64 << po_idx.min(63);
    }
    for i in (0..nl.len()).rev() {
        let r = reach[i];
        let node = nl.node(blasys_logic::NodeId::from_index(i));
        if node.kind().is_gate() {
            for f in node.fanins() {
                reach[f.index()] |= r;
            }
        }
    }
    partition
        .clusters()
        .iter()
        .map(|c| {
            c.outputs()
                .iter()
                .map(|&n| {
                    let r = reach[n.index()];
                    if r == 0 {
                        return 1.0;
                    }
                    let low = r.trailing_zeros();
                    (1u64 << low.min(EXP_CAP)) as f64
                })
                .collect()
        })
        .collect()
}

/// Everything the flow produced: the partition, the per-subcircuit
/// profiles, the exploration trajectory, and synthesis services to
/// materialize any trajectory point as a measured netlist.
#[derive(Debug, Clone)]
pub struct BlasysResult {
    original: Netlist,
    partition: Partition,
    profiles: Vec<SubcircuitProfile>,
    trajectory: Vec<TrajectoryPoint>,
    library: CellLibrary,
    estimate: EstimateConfig,
    /// Release-mode opt-in for the interface verifier on synthesized
    /// steps (debug builds always verify).
    verify_ir: bool,
}

impl BlasysResult {
    /// Assemble a result from session-cached parts (the session API's
    /// [`FlowSession::result`](crate::session::FlowSession::result)).
    pub(crate) fn from_parts(
        original: Netlist,
        partition: Partition,
        profiles: Vec<SubcircuitProfile>,
        trajectory: Vec<TrajectoryPoint>,
        library: CellLibrary,
        estimate: EstimateConfig,
        verify_ir: bool,
    ) -> BlasysResult {
        BlasysResult {
            original,
            partition,
            profiles,
            trajectory,
            library,
            estimate,
            verify_ir,
        }
    }

    /// The input netlist.
    pub fn original(&self) -> &Netlist {
        &self.original
    }

    /// The k×m-cut partition used.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Per-subcircuit factorization profiles.
    pub fn profiles(&self) -> &[SubcircuitProfile] {
        &self.profiles
    }

    /// The recorded exploration trajectory (first point = exact).
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.trajectory
    }

    /// The cell library all metrics were estimated with.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// The estimator configuration all metrics were estimated with.
    pub fn estimate_config(&self) -> &EstimateConfig {
        &self.estimate
    }

    /// Synthesize the netlist of one trajectory point: every cluster is
    /// replaced by its active variant's compressor/decompressor (the
    /// exact resynthesis for clusters still at full degree).
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn synthesize_step(&self, step: usize) -> Netlist {
        let point = &self.trajectory[step];
        let impls: Vec<ClusterImpl> = self
            .profiles
            .iter()
            .zip(&point.degrees)
            .map(|(p, &f)| ClusterImpl::Replace(p.variant(f).netlist.clone()))
            .collect();
        let synthesized = substitute(&self.original, &self.partition, &impls).cleaned();
        if cfg!(debug_assertions) || self.verify_ir {
            // Any violation here is a bug in substitute/cleaned, not
            // in the caller's input — assert, don't return.
            if let Err(diags) = blasys_lint::verify_interface(&self.original, &synthesized) {
                panic!("synthesize_step({step}) broke the PI/PO interface: {diags:?}");
            }
        }
        synthesized
    }

    /// Area / power / delay of one trajectory point's synthesized
    /// netlist.
    pub fn metrics_step(&self, step: usize) -> DesignMetrics {
        estimate(&self.synthesize_step(step), &self.library, &self.estimate)
    }

    /// The accurate baseline: every cluster resynthesized exactly
    /// (step 0 of the trajectory).
    pub fn baseline_metrics(&self) -> DesignMetrics {
        self.metrics_step(0)
    }

    /// Index of the deepest trajectory point whose metric stays within
    /// `threshold`.
    ///
    /// # Examples
    ///
    /// Pick the deepest design within a 5 % error budget and
    /// synthesize it to gates (`examples/quickstart.rs` in miniature):
    ///
    /// ```
    /// use blasys_core::{Blasys, QorMetric};
    /// use blasys_logic::builder::{add, input_bus, mark_output_bus};
    /// use blasys_logic::Netlist;
    ///
    /// let mut nl = Netlist::new("add4");
    /// let a = input_bus(&mut nl, "a", 4);
    /// let b = input_bus(&mut nl, "b", 4);
    /// let s = add(&mut nl, &a, &b);
    /// mark_output_bus(&mut nl, "s", &s);
    ///
    /// let result = Blasys::new().samples(1024).run(&nl);
    /// let step = result
    ///     .best_step_under(QorMetric::AvgRelative, 0.05)
    ///     .expect("step 0 is exact, so always within budget");
    /// assert!(result.trajectory()[step].qor.avg_relative <= 0.05);
    /// let approx = result.synthesize_step(step);
    /// assert!(result.metrics_step(step).area_um2 <= result.baseline_metrics().area_um2);
    /// assert!(approx.num_outputs() == nl.num_outputs());
    /// ```
    pub fn best_step_under(&self, metric: QorMetric, threshold: f64) -> Option<usize> {
        self.trajectory
            .iter()
            .rposition(|p| p.qor.value(metric) <= threshold)
    }

    /// Certify the exact worst-case absolute error of one trajectory
    /// point with the SAT engine and stamp it into the recorded
    /// [`QorReport`](crate::qor::QorReport)
    /// (`certified_worst_absolute`). Returns the full certificate
    /// (witness input, probe count, solver statistics).
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn certify_step(&mut self, step: usize) -> CertifiedPoint {
        self.certify_step_observed(step, &mut |_| {})
    }

    /// Like [`BlasysResult::certify_step`], streaming each SAT probe's
    /// solver statistics to `on_probe` (see
    /// [`CertifiedPoint::certify_observed`]).
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn certify_step_observed(
        &mut self,
        step: usize,
        on_probe: &mut dyn FnMut(&blasys_sat::SolverStats),
    ) -> CertifiedPoint {
        let synthesized = self.synthesize_step(step);
        let sampled = self.trajectory[step].qor.worst_absolute;
        let point =
            CertifiedPoint::certify_observed(step, &self.original, &synthesized, sampled, on_probe);
        self.trajectory[step].qor.certified_worst_absolute = Some(point.certificate.worst_absolute);
        point
    }

    /// SAT-prove that a trajectory point's synthesized netlist is
    /// *exactly* equivalent to the original — meaningful for step 0
    /// (exact resynthesis), where sampling can only say "probably
    /// equal" beyond 16 inputs.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn prove_step_exact(&self, step: usize) -> blasys_logic::Equivalence {
        prove_exact(&self.original, &self.synthesize_step(step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_circuits::{adder, multiplier};
    use blasys_logic::equiv::{check_equiv, EquivConfig};

    fn quick(nl: &Netlist) -> BlasysResult {
        Blasys::new().samples(2048).seed(3).run(nl)
    }

    #[test]
    fn step0_synthesis_is_equivalent_to_original() {
        let nl = adder(8);
        let result = quick(&nl);
        let exact = result.synthesize_step(0);
        assert!(
            check_equiv(&nl, &exact, &EquivConfig::default()).is_equal(),
            "exact resynthesis must preserve function"
        );
    }

    #[test]
    fn full_approximation_shrinks_real_area() {
        let nl = multiplier(4);
        let result = quick(&nl);
        let base = result.baseline_metrics();
        let last = result.metrics_step(result.trajectory().len() - 1);
        assert!(
            last.area_um2 < base.area_um2,
            "fully approximated design must be smaller: {} vs {}",
            last.area_um2,
            base.area_um2
        );
    }

    #[test]
    fn measured_error_of_synthesized_step_matches_trajectory() {
        // The synthesized netlist at step s must show the same error the
        // table network reported (same stimulus, same seed).
        let nl = adder(6);
        let result = quick(&nl);
        let mid = result.trajectory().len() / 2;
        let approx = result.synthesize_step(mid);
        // Re-measure by direct simulation.
        use blasys_logic::sim::random_stimulus;
        use blasys_logic::Simulator;
        let blocks = 32;
        let stim = random_stimulus(&nl, blocks, 99);
        let mut sim_g = Simulator::new(&nl);
        let mut sim_a = Simulator::new(&approx);
        let mut acc = crate::qor::QorAccumulator::new(nl.num_outputs());
        let mut words = vec![0u64; nl.num_inputs()];
        #[allow(clippy::needless_range_loop)]
        for b in 0..blocks {
            for (i, w) in words.iter_mut().enumerate() {
                *w = stim[i][b];
            }
            let g = sim_g.run(&words).to_vec();
            let a = sim_a.run(&words);
            for lane in 0..64 {
                let mut gv = 0u64;
                let mut av = 0u64;
                for o in 0..g.len() {
                    gv |= (g[o] >> lane & 1) << o;
                    av |= (a[o] >> lane & 1) << o;
                }
                acc.push(gv, av);
            }
        }
        let direct = acc.finish();
        let recorded = result.trajectory()[mid].qor;
        // Different stimulus seeds, so allow sampling slack.
        assert!(
            (direct.avg_relative - recorded.avg_relative).abs()
                < 0.05 + recorded.avg_relative * 0.5,
            "direct {} vs recorded {}",
            direct.avg_relative,
            recorded.avg_relative
        );
    }

    #[test]
    fn weighted_flow_runs() {
        let nl = multiplier(4);
        let result = Blasys::new()
            .samples(1024)
            .weighting(OutputWeighting::ValueInfluence)
            .run(&nl);
        assert!(result.trajectory().len() > 1);
    }

    #[test]
    fn best_step_under_respects_threshold() {
        let nl = adder(8);
        let result = quick(&nl);
        if let Some(step) = result.best_step_under(QorMetric::AvgRelative, 0.05) {
            assert!(result.trajectory()[step].qor.avg_relative <= 0.05);
        }
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use blasys_circuits::multiplier;

    #[test]
    fn field_algebra_flow_end_to_end() {
        let nl = multiplier(4);
        let result = Blasys::new().samples(1024).algebra(Algebra::Field).run(&nl);
        assert!(result.trajectory().len() > 1);
        // Step 0 remains exact under XOR decompressors too.
        assert_eq!(result.trajectory()[0].qor.avg_relative, 0.0);
    }

    #[test]
    fn custom_stimulus_changes_measured_error() {
        let nl = multiplier(4);
        // Stimulus with operand a locked to zero: any approximation of
        // the product path is invisible (product is always 0), so the
        // explored error profile must differ from uniform stimulus.
        let blocks = 32;
        let mut stim = vec![vec![0u64; blocks]; nl.num_inputs()];
        for (i, lanes) in stim.iter_mut().enumerate() {
            if i >= 4 {
                // b operand: pseudo-random lanes.
                for (b, w) in lanes.iter_mut().enumerate() {
                    *w = (i as u64 + 1)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(b as u32);
                }
            }
        }
        let biased = Blasys::new().stimulus(stim).run(&nl);
        // With a = 0 the exact product is always 0, so any variant that
        // keeps outputs at 0 shows zero error; the trajectory's final
        // error under biased stimulus must be no larger than uniform.
        let uniform = Blasys::new().samples(2048).run(&nl);
        let b_last = biased.trajectory().last().unwrap().qor.avg_relative;
        let u_last = uniform.trajectory().last().unwrap().qor.avg_relative;
        assert!(
            b_last <= u_last + 1e-9,
            "biased {b_last} vs uniform {u_last}"
        );
    }

    #[test]
    fn certification_pass_stamps_final_step() {
        let nl = multiplier(3);
        let result = Blasys::new().samples(1024).certify(true).run(&nl);
        let last = result.trajectory().last().unwrap();
        let certified = last
            .qor
            .certified_worst_absolute
            .expect("certify(true) must stamp the final step");
        // The certificate dominates the sampled bound.
        assert!(certified >= last.qor.worst_absolute);
        assert_eq!(last.qor.best_known_worst_absolute(), certified);
        // Exhaustive cross-check on the small multiplier.
        let approx = result.synthesize_step(result.trajectory().len() - 1);
        assert_eq!(
            certified,
            blasys_sat::brute_force_worst_absolute(&nl, &approx)
        );
    }

    #[test]
    fn prove_step0_exact_via_sat() {
        use blasys_circuits::adder;
        let nl = adder(8); // 16 inputs
        let mut result = Blasys::new().samples(2048).seed(17).run(&nl);
        use blasys_logic::Equivalence;
        assert_eq!(
            result.prove_step_exact(0),
            Equivalence::Equal { exhaustive: true }
        );
        // Certifying the exact step yields a zero bound.
        let point = result.certify_step(0);
        assert_eq!(point.certificate.worst_absolute, 0);
        assert!(point.certificate.proves_equivalence());
        assert_eq!(result.trajectory()[0].qor.certified_worst_absolute, Some(0));
    }

    #[test]
    fn smaller_windows_give_coarser_tradeoffs() {
        let nl = multiplier(4);
        let small = Blasys::new().samples(1024).limits(4, 4).run(&nl);
        let large = Blasys::new().samples(1024).limits(8, 8).run(&nl);
        // Smaller windows -> more clusters.
        assert!(small.partition().len() >= large.partition().len());
    }
}
