//! Design-space exploration engines over the probe substrate.
//!
//! The paper's Algorithm 1 (lines 12–22) walks a single greedy
//! lowest-error trajectory: starting from the exact circuit
//! (`f_i = m_i` everywhere), each iteration probes, for every
//! subcircuit still above degree 1, the whole-circuit QoR if that
//! subcircuit's degree dropped by one, and commits the smallest error
//! increase. That walk is still the default, but the probe engine made
//! candidate evaluation cheap enough to afford better search, so the
//! exploration stage is pluggable via [`Explorer`]:
//!
//! * [`Explorer::Greedy`] — the paper's walk, kept verbatim as the
//!   reference implementation (and the differential oracle for the
//!   beam engine's k = 1 degenerate case).
//! * [`Explorer::Beam`] — k committed frontiers advance in lock-step;
//!   every frontier branch probes all its candidates, the pooled
//!   expansions are ranked deterministically by (error, branch index,
//!   cluster index), and the best k feasible, *distinct* children
//!   become the next frontier. Branch evaluators are clones of one
//!   pristine evaluator that share the immutable sampled model
//!   (stimulus, golden outputs — see [`Evaluator`]'s `Arc` sharing)
//!   and duplicate only per-branch committed values; the gate-level
//!   netlist is never cloned per branch. With `width == 1` the
//!   ranking degenerates to greedy's (error, cluster) order and the
//!   trajectory is **bit-identical** to [`Explorer::Greedy`].
//! * [`Explorer::Anneal`] — seeded simulated annealing over the
//!   degree lattice: random single-degree moves (down *or* up),
//!   feasibility-gated by the stop threshold, accepted by the
//!   Metropolis rule under a geometric temperature schedule. The
//!   inner loop is strictly serial and every RNG draw derives from
//!   [`AnnealSchedule::seed`], so runs are reproducible and
//!   independent of the worker count by construction.
//! * [`Explorer::Pareto3`] — multi-objective mode: commits exactly
//!   the greedy walk while archiving **every** completed candidate
//!   probe as an (error, area, depth) point, and distills the archive
//!   into a 3-D Pareto surface ([`crate::pareto::pareto_front3`])
//!   returned via [`Exploration::pareto_surface`]. The depth axis is
//!   the cluster-DAG longest path over per-variant estimated delays
//!   ([`TableNetwork::model_depth_ns`]).
//!
//! All engines run through the same session context: they stop at
//! committed-step boundaries on cancellation, wall or probe budgets
//! (so truncated trajectories are exact prefixes), stream committed
//! points through the [`FlowObserver`](crate::session::FlowObserver),
//! and tally `explore.*` counters on an attached metrics registry.
//!
//! # Parallel candidate sweep
//!
//! The per-step candidate probes are independent `&self` reads of the
//! shared evaluator model (see [`crate::montecarlo`]), so they run on
//! the [`blasys_par`] pool — one reusable
//! [`ProbeState`](crate::montecarlo::ProbeState) per worker. The
//! winner is reduced deterministically (lowest error, then lowest
//! branch, then lowest cluster index), which makes every trajectory
//! **bit-identical** at every pool size: the serial path is the same
//! computation on a one-worker [`Pool`].
//!
//! # Bound-pruned probes
//!
//! With [`ExploreConfig::prune`] on (the default), the sweep threads a
//! best-so-far bound through the candidate probes: each completed
//! probe lowers a shared monotone bound (seeded with the stop
//! threshold), and every in-flight probe abandons block-wise the
//! moment its monotone partial error exceeds it
//! ([`Evaluator::qor_probe_bounded`]). This is a pure wall-clock
//! optimization — the committed trajectory is **bit-identical** with
//! pruning on or off, at any worker count, because:
//!
//! * a pruned candidate's final error is ≥ its partial error, hence
//!   strictly above the bound, hence strictly above the step winner's
//!   error — it could never have won;
//! * the comparison is strict, so candidates tying the bound (and the
//!   winner itself) always run to completion, preserving the
//!   lowest-index tie-break;
//! * which *losers* get pruned may vary with thread timing, but
//!   losers contribute nothing to the trajectory;
//! * when the bound is seeded by the stop threshold and *every*
//!   candidate is pruned, the unpruned sweep's minimum would also have
//!   exceeded the threshold — both paths stop at the same step.
//!
//! Engines that need more than the per-step minimum keep the bound
//! **fixed at the stop threshold** instead of tightening it: beam
//! search (`width > 1`) must rank the top-k expansions, and pareto3
//! must archive every feasible candidate — in both cases the
//! surviving probe set is exactly `{error ≤ threshold}` regardless of
//! thread timing, so their results stay deterministic too.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use blasys_par::Pool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::montecarlo::{Evaluator, TableNetwork};
use crate::pareto::{pareto_front3, TradeoffPoint};
use crate::profile::SubcircuitProfile;
use crate::qor::{QorMetric, QorReport};
use crate::session::{Budget, Exploration, FlowContext, StopReason};

/// When exploration stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCriterion {
    /// Stop as soon as the driving metric would exceed this threshold
    /// (the paper's Algorithm 1 condition).
    ErrorThreshold(f64),
    /// Walk the full trajectory down to `f_i = 1` everywhere
    /// (used to draw the Figure 5 trade-off curves).
    Exhaust,
}

/// Cooling schedule for [`Explorer::Anneal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealSchedule {
    /// Number of proposed moves (each costs one candidate probe).
    pub steps: usize,
    /// Initial temperature, in units of normalized model area.
    pub t0: f64,
    /// Geometric cooling factor per proposed move (`T_i = t0·c^i`).
    pub cooling: f64,
    /// RNG seed. `None` derives the seed from the session's
    /// Monte-Carlo stimulus seed ([`McConfig::seed`]) when run through
    /// a [`FlowSession`](crate::session::FlowSession), and falls back
    /// to 0 for the standalone [`explore`] entry point.
    ///
    /// [`McConfig::seed`]: crate::montecarlo::McConfig::seed
    pub seed: Option<u64>,
}

impl Default for AnnealSchedule {
    fn default() -> AnnealSchedule {
        AnnealSchedule {
            steps: 256,
            t0: 0.05,
            cooling: 0.98,
            seed: None,
        }
    }
}

/// The search engine driving an exploration. See the [module
/// docs](self) for what each engine guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Explorer {
    /// The paper's greedy lowest-error walk (the default).
    #[default]
    Greedy,
    /// Beam search over `width` committed frontiers. `width == 1` is
    /// bit-identical to [`Explorer::Greedy`].
    Beam {
        /// Frontier width `k` (must be ≥ 1).
        width: usize,
    },
    /// Seeded simulated annealing over the degree lattice.
    Anneal(AnnealSchedule),
    /// Greedy walk + 3-D (error, area, depth) Pareto archive of every
    /// feasible candidate probe.
    Pareto3,
}

/// Exploration settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreConfig {
    /// Metric that drives greedy selection and the stop threshold.
    pub metric: QorMetric,
    /// Stop criterion.
    pub stop: StopCriterion,
    /// Abandon candidate probes block-wise once their partial error
    /// provably exceeds the best candidate seen this step (see the
    /// module docs). Pure wall-clock optimization: the trajectory is
    /// bit-identical with pruning on or off.
    pub prune: bool,
    /// The search engine to run.
    pub explorer: Explorer,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            metric: QorMetric::AvgRelative,
            stop: StopCriterion::Exhaust,
            prune: true,
            explorer: Explorer::Greedy,
        }
    }
}

/// One committed step of the exploration.
#[derive(Debug, Clone)]
pub struct TrajectoryPoint {
    /// Step index (0 = exact starting point).
    pub step: usize,
    /// Cluster whose degree changed at this step (`None` for the
    /// starting point). Greedy, beam, and pareto3 only ever decrement;
    /// annealing may also re-increment a degree. For beam widths > 1
    /// the point records the *frontier leader*, whose parent need not
    /// be the previous point.
    pub changed_cluster: Option<usize>,
    /// Factorization degree per cluster after the step.
    pub degrees: Vec<usize>,
    /// Whole-circuit QoR after the step.
    pub qor: QorReport,
    /// Modeled area: sum of the active variants' areas (the paper's
    /// exploration-time design-metric model), µm².
    pub model_area_um2: f64,
    /// Modeled depth: longest path through the cluster DAG, charging
    /// each cluster its active variant's estimated delay, ns.
    pub model_depth_ns: f64,
}

/// Sum of the active variants' areas, µm² (the paper's
/// exploration-time design-metric model).
fn model_area(profiles: &[SubcircuitProfile], degrees: &[usize]) -> f64 {
    profiles
        .iter()
        .zip(degrees)
        .map(|(p, &f)| p.variant(f).area_um2)
        .sum()
}

/// Longest-path depth of the cluster DAG under the active variants'
/// estimated delays, ns.
fn model_depth(profiles: &[SubcircuitProfile], network: &TableNetwork, degrees: &[usize]) -> f64 {
    let delays: Vec<f64> = profiles
        .iter()
        .zip(degrees)
        .map(|(p, &f)| p.variant(f).delay_ns)
        .collect();
    network.model_depth_ns(&delays)
}

/// Run the exploration phase (Algorithm 1's greedy walk by default;
/// see [`ExploreConfig::explorer`] for the other engines).
///
/// `evaluator` must be freshly built (exact tables installed);
/// `profiles` must come from the same partition. Candidate sweeps run
/// on `pool`; the trajectory is bit-identical at every pool size.
/// Returns the recorded trajectory; the first point is the exact
/// design.
pub fn explore(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    cfg: &ExploreConfig,
    pool: &Pool,
) -> Vec<TrajectoryPoint> {
    explore_full(evaluator, profiles, cfg, pool).into_trajectory()
}

/// Like [`explore`], but returns the full [`Exploration`]: the stop
/// reason, the probe count, and — for [`Explorer::Pareto3`] — the 3-D
/// Pareto surface via
/// [`pareto_surface`](Exploration::pareto_surface).
pub fn explore_full(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    cfg: &ExploreConfig,
    pool: &Pool,
) -> Exploration {
    explore_ctx(
        evaluator,
        profiles,
        cfg,
        pool,
        &FlowContext::NONE,
        &Budget::default(),
    )
}

/// The session-aware exploration core behind [`explore`] and
/// [`FlowSession::explore`](crate::session::FlowSession::explore):
/// dispatches to the configured [`Explorer`] engine, runs candidate
/// sweeps on `pool`, streams committed points through the context's
/// observer, and stops at step boundaries on cancellation or an
/// exceeded budget — so a truncated trajectory is always a prefix of
/// the uninterrupted one.
pub(crate) fn explore_ctx(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    cfg: &ExploreConfig,
    pool: &Pool,
    ctx: &FlowContext<'_>,
    budget: &Budget,
) -> Exploration {
    match cfg.explorer {
        Explorer::Greedy => greedy_ctx(evaluator, profiles, cfg, pool, ctx, budget, None),
        Explorer::Beam { width } => beam_ctx(evaluator, profiles, cfg, width, pool, ctx, budget),
        Explorer::Anneal(schedule) => anneal_ctx(evaluator, profiles, cfg, schedule, ctx, budget),
        Explorer::Pareto3 => {
            let mut archive = Vec::new();
            let mut exploration = greedy_ctx(
                evaluator,
                profiles,
                cfg,
                pool,
                ctx,
                budget,
                Some(&mut archive),
            );
            exploration.pareto = Some(pareto_front3(&archive));
            exploration
        }
    }
}

/// The paper's greedy walk (the `Explorer::Greedy` engine), kept as
/// the reference implementation the beam engine's k = 1 case is
/// differentially tested against.
///
/// With `archive` supplied (the `Explorer::Pareto3` engine), every
/// feasible completed candidate probe is also recorded as an (error,
/// area, depth) trade-off point; the bound then stays fixed at the
/// stop threshold instead of tightening (see the module docs), so the
/// archived set is `{error ≤ threshold}` at any worker count.
#[allow(clippy::too_many_arguments)]
fn greedy_ctx(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    cfg: &ExploreConfig,
    pool: &Pool,
    ctx: &FlowContext<'_>,
    budget: &Budget,
    mut archive: Option<&mut Vec<TradeoffPoint>>,
) -> Exploration {
    let n = profiles.len();
    let mut degrees: Vec<usize> = profiles.iter().map(|p| p.num_outputs).collect();
    let base_area = model_area(profiles, &degrees).max(f64::MIN_POSITIVE);

    let mut trajectory = Vec::new();
    let depth0 = model_depth(profiles, evaluator.network(), &degrees);
    trajectory.push(TrajectoryPoint {
        step: 0,
        changed_cluster: None,
        degrees: degrees.clone(),
        qor: evaluator.qor_current(),
        model_area_um2: model_area(profiles, &degrees),
        model_depth_ns: depth0,
    });
    ctx.trajectory_point(&trajectory[0]);
    if let Some(archive) = archive.as_deref_mut() {
        let p = &trajectory[0];
        archive.push(TradeoffPoint {
            error: p.qor.value(cfg.metric),
            area_um2: p.model_area_um2,
            norm_area: p.model_area_um2 / base_area,
            depth_ns: p.model_depth_ns,
            step: 0,
        });
    }

    let threshold = match cfg.stop {
        StopCriterion::ErrorThreshold(t) => t,
        StopCriterion::Exhaust => f64::INFINITY,
    };

    // One probe overlay per worker, reused across every step (epoch
    // stamping makes reuse across commits sound — see `ProbeState`).
    let mut probe_states: Vec<_> = (0..pool.threads().min(n).max(1))
        .map(|_| evaluator.probe_state())
        .collect();

    let mut step = 0usize;
    let mut probes_done = 0u64;
    let stop_reason = loop {
        if ctx.cancelled() {
            break StopReason::Cancelled;
        }
        if ctx.expired() {
            break StopReason::WallBudget;
        }
        // Candidates: clusters whose degree can still drop. Probe all
        // of them concurrently against the shared committed model and
        // reduce deterministically: lowest error wins, ties broken by
        // the lowest cluster index — exactly the order the serial scan
        // would have kept, so the trajectory does not depend on the
        // worker count.
        let candidates: Vec<usize> = (0..n).filter(|&ci| degrees[ci] > 1).collect();
        if candidates.is_empty() {
            break StopReason::Exhausted;
        }
        // The probe budget is checked against the *whole* upcoming
        // sweep, so capped runs are deterministic: a step either runs
        // all its candidates or does not start.
        if let Some(max) = budget.max_probes {
            if probes_done + candidates.len() as u64 > max {
                break StopReason::ProbeBudget;
            }
        }
        // Shared monotone bound for pruned probes: the threshold to
        // start with, lowered to the best completed candidate's error
        // as probes finish. Stored as non-negative f64 bits (their
        // unsigned order matches the float order), so workers can
        // `fetch_min` it without locking. Timing only decides which
        // *losers* get pruned early — never who wins. In archive
        // (pareto3) mode the bound stays at the threshold so the set
        // of completed probes is timing-independent.
        let tighten = archive.is_none();
        let bound = AtomicU64::new(threshold.to_bits());
        let probes: Vec<Option<(f64, usize, QorReport)>> =
            pool.run_states(candidates.len(), &mut probe_states, |state, i| {
                let ci = candidates[i];
                let rows = &profiles[ci].variant(degrees[ci] - 1).table_rows;
                if cfg.prune {
                    // The bound is re-read before every block's prune
                    // check, so in-flight probes see tightening from
                    // peers that completed after they launched.
                    let report =
                        evaluator.qor_probe_bounded_by(state, ci, rows, cfg.metric, || {
                            f64::from_bits(bound.load(Ordering::Relaxed))
                        })?;
                    let err = report.value(cfg.metric);
                    if tighten {
                        bound.fetch_min(err.to_bits(), Ordering::Relaxed);
                    }
                    Some((err, ci, report))
                } else {
                    let report = evaluator.qor_probe(state, ci, rows);
                    Some((report.value(cfg.metric), ci, report))
                }
            });
        probes_done += candidates.len() as u64;
        if let Some(archive) = archive.as_deref_mut() {
            // Deterministic archive order: candidate index order, with
            // probes that ran past the threshold (pruned or completed)
            // filtered the same way on both prune paths.
            for probe in probes.iter().flatten() {
                let (err, ci, _) = probe;
                if *err <= threshold {
                    let mut cand = degrees.clone();
                    cand[*ci] -= 1;
                    let area = model_area(profiles, &cand);
                    archive.push(TradeoffPoint {
                        error: *err,
                        area_um2: area,
                        norm_area: area / base_area,
                        depth_ns: model_depth(profiles, evaluator.network(), &cand),
                        step: step + 1,
                    });
                }
            }
        }
        let best = probes
            .into_iter()
            .flatten()
            .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let Some((err, ci, report)) = best else {
            // Every candidate was pruned past the stop threshold — the
            // unpruned minimum would also have exceeded it.
            break StopReason::ThresholdReached;
        };
        if err > threshold {
            break StopReason::ThresholdReached; // next step would cross it
        }
        degrees[ci] -= 1;
        evaluator.commit(ci, profiles[ci].variant(degrees[ci]).table_rows.clone());
        step += 1;
        ctx.count("explore.branches", 1);
        ctx.count("explore.frontier_size", 1);
        let depth = model_depth(profiles, evaluator.network(), &degrees);
        trajectory.push(TrajectoryPoint {
            step,
            changed_cluster: Some(ci),
            degrees: degrees.clone(),
            qor: report,
            model_area_um2: model_area(profiles, &degrees),
            model_depth_ns: depth,
        });
        ctx.trajectory_point(trajectory.last().expect("just pushed"));
    };
    Exploration {
        trajectory,
        stop: stop_reason,
        probes: probes_done,
        pareto: None,
    }
}

/// One committed frontier of the beam engine: a branch evaluator
/// (sharing the pristine evaluator's sampled model, owning only its
/// committed values) plus its degree vector.
#[derive(Clone)]
struct Branch {
    evaluator: Evaluator,
    degrees: Vec<usize>,
}

/// The `Explorer::Beam` engine: k committed frontiers advance in
/// lock-step; see the [module docs](self) for the ranking and
/// determinism contract. The recorded trajectory is the per-step
/// frontier leader (rank 0), which makes truncated runs exact
/// prefixes and reduces to the greedy walk at `width == 1`.
fn beam_ctx(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    cfg: &ExploreConfig,
    width: usize,
    pool: &Pool,
    ctx: &FlowContext<'_>,
    budget: &Budget,
) -> Exploration {
    assert!(width >= 1, "beam width must be at least 1");
    let n = profiles.len();
    let exact: Vec<usize> = profiles.iter().map(|p| p.num_outputs).collect();

    let mut trajectory = Vec::new();
    let depth0 = model_depth(profiles, evaluator.network(), &exact);
    trajectory.push(TrajectoryPoint {
        step: 0,
        changed_cluster: None,
        degrees: exact.clone(),
        qor: evaluator.qor_current(),
        model_area_um2: model_area(profiles, &exact),
        model_depth_ns: depth0,
    });
    ctx.trajectory_point(&trajectory[0]);

    let threshold = match cfg.stop {
        StopCriterion::ErrorThreshold(t) => t,
        StopCriterion::Exhaust => f64::INFINITY,
    };

    // Probe overlays are shape-compatible across branches (every
    // branch evaluator clones the same network layout), so one set
    // serves the whole frontier's pooled sweep.
    let max_expansions = width * n;
    let mut probe_states: Vec<_> = (0..pool.threads().min(max_expansions).max(1))
        .map(|_| evaluator.probe_state())
        .collect();

    let mut frontier: Vec<Branch> = vec![Branch {
        evaluator: evaluator.clone(),
        degrees: exact,
    }];

    let mut step = 0usize;
    let mut probes_done = 0u64;
    let stop_reason = loop {
        if ctx.cancelled() {
            break StopReason::Cancelled;
        }
        if ctx.expired() {
            break StopReason::WallBudget;
        }
        // Pooled expansions, branch-major then cluster order. Every
        // branch carries the same total degree (each step replaces the
        // frontier with one-step children), so all branches exhaust on
        // the same step.
        let expansions: Vec<(usize, usize)> = frontier
            .iter()
            .enumerate()
            .flat_map(|(b, branch)| {
                (0..n)
                    .filter(move |&ci| branch.degrees[ci] > 1)
                    .map(move |ci| (b, ci))
            })
            .collect();
        if expansions.is_empty() {
            break StopReason::Exhausted;
        }
        // Whole-sweep probe-budget check, like greedy: a step either
        // probes every expansion or does not start.
        if let Some(max) = budget.max_probes {
            if probes_done + expansions.len() as u64 > max {
                break StopReason::ProbeBudget;
            }
        }
        ctx.count("explore.frontier_size", frontier.len() as u64);
        // Bound: fixed at the stop threshold for width > 1 (top-k
        // selection must see every feasible expansion; see the module
        // docs), tightening like greedy at width == 1 (only the
        // minimum survives selection, so the greedy proof applies
        // unchanged).
        let bound = AtomicU64::new(threshold.to_bits());
        let frontier_ref = &frontier;
        let probes: Vec<Option<(f64, QorReport)>> =
            pool.run_states(expansions.len(), &mut probe_states, |state, i| {
                let (b, ci) = expansions[i];
                let branch = &frontier_ref[b];
                let rows = &profiles[ci].variant(branch.degrees[ci] - 1).table_rows;
                if cfg.prune {
                    let report = branch.evaluator.qor_probe_bounded_by(
                        state,
                        ci,
                        rows,
                        cfg.metric,
                        || f64::from_bits(bound.load(Ordering::Relaxed)),
                    )?;
                    let err = report.value(cfg.metric);
                    if width == 1 {
                        bound.fetch_min(err.to_bits(), Ordering::Relaxed);
                    }
                    Some((err, report))
                } else {
                    let report = branch.evaluator.qor_probe(state, ci, rows);
                    Some((report.value(cfg.metric), report))
                }
            });
        probes_done += expansions.len() as u64;
        // Deterministic ranking: (error, branch index, cluster index).
        // Expansions are already in (branch, cluster) order, so a
        // stable sort by error alone realizes exactly that — and at
        // width == 1 it degenerates to greedy's (error, cluster) order.
        let mut scored: Vec<(f64, usize, usize, QorReport)> = probes
            .into_iter()
            .zip(&expansions)
            .filter_map(|(p, &(b, ci))| p.map(|(err, report)| (err, b, ci, report)))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let Some(leader) = scored.first() else {
            // Every expansion was pruned past the stop threshold.
            break StopReason::ThresholdReached;
        };
        if leader.0 > threshold {
            break StopReason::ThresholdReached;
        }
        // Keep the best `width` feasible children with distinct degree
        // vectors (two branches can converge on the same design; the
        // better-ranked lineage wins).
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut kept: Vec<(f64, usize, usize, QorReport)> = Vec::with_capacity(width);
        for (err, b, ci, report) in scored {
            if err > threshold || kept.len() == width {
                break;
            }
            let mut child = frontier[b].degrees.clone();
            child[ci] -= 1;
            if seen.insert(child) {
                kept.push((err, b, ci, report));
            }
        }
        ctx.count("explore.branches", kept.len() as u64);
        // Build the next frontier in rank order, moving each parent
        // evaluator into its last selected child and cloning for the
        // rest (clones share the sampled model — see `Evaluator`).
        let mut remaining = vec![0usize; frontier.len()];
        for &(_, b, _, _) in &kept {
            remaining[b] += 1;
        }
        let mut parents: Vec<Option<Branch>> = frontier.into_iter().map(Some).collect();
        let mut next: Vec<Branch> = Vec::with_capacity(kept.len());
        let mut leader_point: Option<(usize, QorReport)> = None;
        for (rank, (_, b, ci, report)) in kept.into_iter().enumerate() {
            remaining[b] -= 1;
            let mut branch = if remaining[b] == 0 {
                parents[b].take().expect("parent still present")
            } else {
                parents[b].as_ref().expect("parent still present").clone()
            };
            branch.degrees[ci] -= 1;
            branch.evaluator.commit(
                ci,
                profiles[ci].variant(branch.degrees[ci]).table_rows.clone(),
            );
            if rank == 0 {
                leader_point = Some((ci, report));
            }
            next.push(branch);
        }
        frontier = next;
        step += 1;
        let (ci, report) = leader_point.expect("kept is non-empty");
        let leader = &frontier[0];
        let depth = model_depth(profiles, leader.evaluator.network(), &leader.degrees);
        trajectory.push(TrajectoryPoint {
            step,
            changed_cluster: Some(ci),
            degrees: leader.degrees.clone(),
            qor: report,
            model_area_um2: model_area(profiles, &leader.degrees),
            model_depth_ns: depth,
        });
        ctx.trajectory_point(trajectory.last().expect("just pushed"));
    };
    Exploration {
        trajectory,
        stop: stop_reason,
        probes: probes_done,
        pareto: None,
    }
}

/// The `Explorer::Anneal` engine: strictly serial Metropolis search
/// over the degree lattice. Serial execution plus a single seeded RNG
/// stream makes runs reproducible and worker-count independent by
/// construction; each proposed move costs exactly one candidate probe,
/// so probe budgets truncate at exact move boundaries.
fn anneal_ctx(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    cfg: &ExploreConfig,
    schedule: AnnealSchedule,
    ctx: &FlowContext<'_>,
    budget: &Budget,
) -> Exploration {
    let n = profiles.len();
    let mut degrees: Vec<usize> = profiles.iter().map(|p| p.num_outputs).collect();
    let base_area = model_area(profiles, &degrees).max(f64::MIN_POSITIVE);

    let mut trajectory = Vec::new();
    let depth0 = model_depth(profiles, evaluator.network(), &degrees);
    trajectory.push(TrajectoryPoint {
        step: 0,
        changed_cluster: None,
        degrees: degrees.clone(),
        qor: evaluator.qor_current(),
        model_area_um2: model_area(profiles, &degrees),
        model_depth_ns: depth0,
    });
    ctx.trajectory_point(&trajectory[0]);

    let threshold = match cfg.stop {
        StopCriterion::ErrorThreshold(t) => t,
        StopCriterion::Exhaust => f64::INFINITY,
    };
    // Movable clusters never change: a window with one output has no
    // lattice moves at all; every other window always has a down or an
    // up move available.
    let movable: Vec<usize> = (0..n).filter(|&ci| profiles[ci].num_outputs > 1).collect();

    let mut rng = SmallRng::seed_from_u64(schedule.seed.unwrap_or(0));
    let mut state = evaluator.probe_state();
    let mut energy = 1.0f64; // normalized model area of the current state
    let mut temp = schedule.t0;
    let mut probes_done = 0u64;
    let mut stop_reason = StopReason::ScheduleComplete;

    for _ in 0..schedule.steps {
        if ctx.cancelled() {
            stop_reason = StopReason::Cancelled;
            break;
        }
        if ctx.expired() {
            stop_reason = StopReason::WallBudget;
            break;
        }
        if movable.is_empty() {
            stop_reason = StopReason::Exhausted;
            break;
        }
        if let Some(max) = budget.max_probes {
            if probes_done + 1 > max {
                stop_reason = StopReason::ProbeBudget;
                break;
            }
        }
        // Propose: a movable cluster, then a lattice direction (forced
        // at the edges, a coin toss in the middle). Every draw comes
        // from the single seeded stream, so the proposal sequence is a
        // pure function of the seed.
        let ci = movable[rng.gen_range(0..movable.len())];
        let m = profiles[ci].num_outputs;
        let d = degrees[ci];
        let down_ok = d > 1;
        let up_ok = d < m;
        let down = match (down_ok, up_ok) {
            (true, true) => rng.gen::<bool>(),
            (true, false) => true,
            (false, true) => false,
            (false, false) => unreachable!("movable clusters always have a move"),
        };
        let new_d = if down { d - 1 } else { d + 1 };
        let rows = &profiles[ci].variant(new_d).table_rows;
        // Feasibility gate: the stop threshold. With pruning on, a
        // probe abandoned past the threshold would have been rejected
        // anyway, so the accept/reject sequence — and hence the
        // trajectory — is identical with pruning on or off.
        let report = if cfg.prune {
            evaluator.qor_probe_bounded_by(&mut state, ci, rows, cfg.metric, || threshold)
        } else {
            Some(evaluator.qor_probe(&mut state, ci, rows))
        };
        probes_done += 1;
        temp = if probes_done == 1 {
            schedule.t0
        } else {
            temp * schedule.cooling
        };
        let Some(report) = report else {
            ctx.count("explore.rejects", 1);
            continue;
        };
        let err = report.value(cfg.metric);
        if err > threshold {
            ctx.count("explore.rejects", 1);
            continue;
        }
        // Metropolis on normalized model area: downhill (smaller) is
        // always taken, uphill with probability exp(−ΔE/T). The accept
        // draw happens only for uphill moves — a deterministic
        // condition, so the RNG stream stays reproducible.
        let mut cand = degrees.clone();
        cand[ci] = new_d;
        let cand_energy = model_area(profiles, &cand) / base_area;
        let delta = cand_energy - energy;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp.max(1e-12)).exp();
        if !accept {
            ctx.count("explore.rejects", 1);
            continue;
        }
        ctx.count("explore.accepts", 1);
        degrees = cand;
        energy = cand_energy;
        evaluator.commit(ci, rows.clone());
        let step = trajectory.len();
        let depth = model_depth(profiles, evaluator.network(), &degrees);
        trajectory.push(TrajectoryPoint {
            step,
            changed_cluster: Some(ci),
            degrees: degrees.clone(),
            qor: report,
            model_area_um2: model_area(profiles, &degrees),
            model_depth_ns: depth,
        });
        ctx.trajectory_point(trajectory.last().expect("just pushed"));
    }
    Exploration {
        trajectory,
        stop: stop_reason,
        probes: probes_done,
        pareto: None,
    }
}

/// The last trajectory point whose driving metric stays within
/// `threshold` (the design Algorithm 1 would synthesize).
pub fn best_under_threshold(
    trajectory: &[TrajectoryPoint],
    metric: QorMetric,
    threshold: f64,
) -> Option<&TrajectoryPoint> {
    trajectory
        .iter()
        .rev()
        .find(|p| p.qor.value(metric) <= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::McConfig;
    use crate::profile::{profile_partition, ProfileConfig};
    use blasys_decomp::{decompose, DecompConfig};
    use blasys_logic::builder::{add, input_bus, mark_output_bus};
    use blasys_logic::Netlist;

    fn setup(width: usize) -> (Netlist, Vec<SubcircuitProfile>, Evaluator) {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        let part = decompose(&nl, &DecompConfig::default());
        let profiles = profile_partition(&nl, &part, &ProfileConfig::default(), &Pool::default());
        let ev = Evaluator::new(
            &nl,
            &part,
            &McConfig {
                samples: 2048,
                seed: 11,
            },
        );
        (nl, profiles, ev)
    }

    /// [`explore`] on a pool sized by `BLASYS_THREADS`.
    fn explore_env(
        ev: &mut Evaluator,
        profiles: &[SubcircuitProfile],
        cfg: &ExploreConfig,
    ) -> Vec<TrajectoryPoint> {
        explore(ev, profiles, cfg, &Pool::default())
    }

    #[test]
    fn trajectory_starts_exact_and_walks_down() {
        let (_nl, profiles, mut ev) = setup(8);
        let traj = explore_env(&mut ev, &profiles, &ExploreConfig::default());
        assert!(traj.len() > 1);
        assert_eq!(traj[0].qor.avg_relative, 0.0);
        assert!(traj[0].changed_cluster.is_none());
        // Exhaustive walk ends with all degrees at 1.
        let last = traj.last().unwrap();
        assert!(last.degrees.iter().all(|&d| d == 1));
        // Total steps = sum of (m_i - 1).
        let expected: usize = profiles.iter().map(|p| p.num_outputs - 1).sum();
        assert_eq!(traj.len() - 1, expected);
    }

    #[test]
    fn each_step_decrements_exactly_one_degree() {
        let (_nl, profiles, mut ev) = setup(6);
        let traj = explore_env(&mut ev, &profiles, &ExploreConfig::default());
        for w in traj.windows(2) {
            let before: usize = w[0].degrees.iter().sum();
            let after: usize = w[1].degrees.iter().sum();
            assert_eq!(after + 1, before);
            let ci = w[1].changed_cluster.unwrap();
            assert_eq!(w[0].degrees[ci], w[1].degrees[ci] + 1);
        }
        let _ = profiles;
    }

    #[test]
    fn model_area_shrinks_overall() {
        let (_nl, profiles, mut ev) = setup(8);
        let traj = explore_env(&mut ev, &profiles, &ExploreConfig::default());
        let first = traj.first().unwrap().model_area_um2;
        let last = traj.last().unwrap().model_area_um2;
        assert!(
            last < first * 0.8,
            "full approximation should cut modeled area meaningfully: {last} vs {first}"
        );
        let _ = profiles;
    }

    #[test]
    fn model_depth_is_positive_and_bounded_by_serial_sum() {
        let (_nl, profiles, mut ev) = setup(8);
        let traj = explore_env(&mut ev, &profiles, &ExploreConfig::default());
        for p in &traj {
            assert!(p.model_depth_ns > 0.0, "step {}", p.step);
            let serial_sum: f64 = profiles
                .iter()
                .zip(&p.degrees)
                .map(|(pr, &f)| pr.variant(f).delay_ns)
                .sum();
            assert!(p.model_depth_ns <= serial_sum + 1e-9, "step {}", p.step);
        }
    }

    #[test]
    fn threshold_stops_early_and_stays_under() {
        let (_nl, profiles, mut ev) = setup(8);
        let cfg = ExploreConfig {
            metric: QorMetric::AvgRelative,
            stop: StopCriterion::ErrorThreshold(0.05),
            ..ExploreConfig::default()
        };
        let traj = explore_env(&mut ev, &profiles, &cfg);
        for p in &traj {
            assert!(p.qor.avg_relative <= 0.05 + 1e-12);
        }
        // The exhaustive walk reaches higher error, so the thresholded
        // one must have stopped earlier than the full length.
        let expected_full: usize = profiles.iter().map(|p| p.num_outputs - 1).sum();
        assert!(traj.len() - 1 <= expected_full);
    }

    #[test]
    fn best_under_threshold_picks_deepest_point() {
        let (_nl, profiles, mut ev) = setup(6);
        let traj = explore_env(&mut ev, &profiles, &ExploreConfig::default());
        let best = best_under_threshold(&traj, QorMetric::AvgRelative, 0.02).unwrap();
        assert!(best.qor.avg_relative <= 0.02);
        // No later point is also under the threshold with smaller area
        // (the search returns the *last* qualifying point).
        for p in &traj[best.step + 1..] {
            assert!(p.qor.avg_relative > 0.02 || p.step <= best.step);
        }
        let _ = profiles;
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let (_nl, profiles, mut ev_serial) = setup(8);
        let (_nl2, _profiles2, mut ev_par) = setup(8);
        let cfg = ExploreConfig::default();
        let serial = explore(&mut ev_serial, &profiles, &cfg, &Pool::new(1));
        let parallel = explore(&mut ev_par, &profiles, &cfg, &Pool::new(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.changed_cluster, p.changed_cluster);
            assert_eq!(s.degrees, p.degrees);
            assert_eq!(s.qor, p.qor, "step {}", s.step);
            assert_eq!(s.model_area_um2.to_bits(), p.model_area_um2.to_bits());
        }
    }

    fn assert_same_trajectory(a: &[TrajectoryPoint], b: &[TrajectoryPoint]) {
        assert_eq!(a.len(), b.len(), "trajectory length");
        for (s, p) in a.iter().zip(b) {
            assert_eq!(s.changed_cluster, p.changed_cluster, "step {}", s.step);
            assert_eq!(s.degrees, p.degrees, "step {}", s.step);
            assert_eq!(s.qor, p.qor, "step {}", s.step);
            assert_eq!(s.model_area_um2.to_bits(), p.model_area_um2.to_bits());
            assert_eq!(s.model_depth_ns.to_bits(), p.model_depth_ns.to_bits());
        }
    }

    #[test]
    fn pruned_sweep_is_bit_identical_to_unpruned() {
        for stop in [StopCriterion::Exhaust, StopCriterion::ErrorThreshold(0.05)] {
            for pool in [Pool::new(1), Pool::new(4)] {
                let (_nl, profiles, mut ev_pruned) = setup(8);
                let (_n2, _p2, mut ev_plain) = setup(8);
                let pruned = explore(
                    &mut ev_pruned,
                    &profiles,
                    &ExploreConfig {
                        stop,
                        prune: true,
                        ..ExploreConfig::default()
                    },
                    &pool,
                );
                let plain = explore(
                    &mut ev_plain,
                    &profiles,
                    &ExploreConfig {
                        stop,
                        prune: false,
                        ..ExploreConfig::default()
                    },
                    &pool,
                );
                assert_same_trajectory(&pruned, &plain);
            }
        }
    }

    #[test]
    fn beam_width_one_matches_greedy() {
        for stop in [StopCriterion::Exhaust, StopCriterion::ErrorThreshold(0.05)] {
            let (_nl, profiles, mut ev_greedy) = setup(8);
            let (_n2, _p2, mut ev_beam) = setup(8);
            let greedy = explore_env(
                &mut ev_greedy,
                &profiles,
                &ExploreConfig {
                    stop,
                    ..ExploreConfig::default()
                },
            );
            let beam = explore_env(
                &mut ev_beam,
                &profiles,
                &ExploreConfig {
                    stop,
                    explorer: Explorer::Beam { width: 1 },
                    ..ExploreConfig::default()
                },
            );
            assert_same_trajectory(&greedy, &beam);
        }
    }

    #[test]
    fn beam_leader_never_trails_greedy() {
        // At equal step counts the width-4 frontier leader's error is
        // never worse than greedy's committed error: the frontier
        // always contains the greedy child among its candidates.
        let (_nl, profiles, mut ev_greedy) = setup(8);
        let (_n2, _p2, mut ev_beam) = setup(8);
        let greedy = explore_env(&mut ev_greedy, &profiles, &ExploreConfig::default());
        let beam = explore_env(
            &mut ev_beam,
            &profiles,
            &ExploreConfig {
                explorer: Explorer::Beam { width: 4 },
                ..ExploreConfig::default()
            },
        );
        for (g, b) in greedy.iter().zip(&beam) {
            assert!(
                b.qor.avg_relative <= g.qor.avg_relative + 1e-12,
                "step {}: beam {} vs greedy {}",
                g.step,
                b.qor.avg_relative,
                g.qor.avg_relative
            );
        }
    }

    #[test]
    fn anneal_is_seed_deterministic() {
        let schedule = AnnealSchedule {
            steps: 64,
            seed: Some(9),
            ..AnnealSchedule::default()
        };
        let cfg = ExploreConfig {
            stop: StopCriterion::ErrorThreshold(0.08),
            explorer: Explorer::Anneal(schedule),
            ..ExploreConfig::default()
        };
        let (_nl, profiles, mut ev_a) = setup(8);
        let (_n2, _p2, mut ev_b) = setup(8);
        let a = explore_env(&mut ev_a, &profiles, &cfg);
        let b = explore_env(&mut ev_b, &profiles, &cfg);
        assert_same_trajectory(&a, &b);
        // Every accepted state respects the feasibility gate.
        for p in &a {
            assert!(p.qor.avg_relative <= 0.08 + 1e-12);
        }
    }

    #[test]
    fn pareto3_trajectory_matches_greedy_and_surfaces_points() {
        let (_nl, profiles, mut ev_greedy) = setup(8);
        let (_n2, _p2, mut ev_p3) = setup(8);
        let greedy = explore_env(&mut ev_greedy, &profiles, &ExploreConfig::default());
        let cfg = ExploreConfig {
            explorer: Explorer::Pareto3,
            ..ExploreConfig::default()
        };
        let p3 = explore_ctx(
            &mut ev_p3,
            &profiles,
            &cfg,
            &Pool::new(1),
            &FlowContext::NONE,
            &Budget::default(),
        );
        assert_same_trajectory(&greedy, p3.trajectory());
        let surface = p3.pareto_surface().expect("pareto3 emits a surface");
        assert!(!surface.is_empty());
        // The exact design (error 0) survives: nothing dominates it.
        assert!(surface.iter().any(|p| p.error == 0.0));
    }

    #[test]
    fn error_grows_monotonically_enough() {
        // Greedy picks the smallest error each step; the committed error
        // sequence should trend upward (allow tiny non-monotonicity from
        // error interaction).
        let (_nl, profiles, mut ev) = setup(8);
        let traj = explore_env(&mut ev, &profiles, &ExploreConfig::default());
        let first_third = traj[traj.len() / 3].qor.avg_relative;
        let last = traj.last().unwrap().qor.avg_relative;
        assert!(last >= first_third);
        let _ = profiles;
    }
}
