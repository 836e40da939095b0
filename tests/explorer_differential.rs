//! Differential acceptance suite for the pluggable explorers: on
//! random netlists,
//!
//! * beam search at `width == 1` commits a **bit-identical**
//!   trajectory to the greedy reference — serial and at 4 workers,
//!   with bound-pruning on and off, thresholded and exhaustive (the
//!   load-bearing correctness oracle: the beam engine is a separate
//!   implementation, not a wrapper around greedy);
//! * simulated annealing is a pure function of its seed — identical
//!   at any worker count and with pruning on or off;
//! * pareto3 commits exactly the greedy walk, so its error axis is
//!   never worse than greedy's at equal step count, and its 3-D
//!   surface is internally non-dominated.
//!
//! Same discipline (and netlist generator family) as
//! `tests/qor_differential.rs`, which pinned the packed QoR engine.

use blasys_repro::blasys::explore::{
    explore, explore_full, AnnealSchedule, ExploreConfig, Explorer, StopCriterion, TrajectoryPoint,
};
use blasys_repro::blasys::montecarlo::{Evaluator, McConfig};
use blasys_repro::blasys::profile::{profile_partition, ProfileConfig, SubcircuitProfile};
use blasys_repro::decomp::{decompose, DecompConfig};
use blasys_repro::logic::Netlist;
use blasys_repro::par::{Parallelism, Pool};
use proptest::prelude::*;

/// Small decomposition windows so random netlists split into several
/// clusters — single-cluster networks would leave frontier ranking and
/// cross-branch pruning unexercised.
fn small_windows() -> DecompConfig {
    DecompConfig {
        max_inputs: 4,
        max_outputs: 4,
        ..DecompConfig::default()
    }
}

/// Random small netlist built from a script of gate operations (same
/// generator family as `tests/qor_differential.rs`).
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (
        3usize..=8,
        proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 8..60),
        1usize..=4,
    )
        .prop_map(|(num_inputs, ops, num_outputs)| {
            let mut nl = Netlist::new("explorer_prop");
            let mut nodes: Vec<_> = (0..num_inputs)
                .map(|i| nl.add_input(format!("i{i}")))
                .collect();
            for (kind, a, b) in ops {
                let a = nodes[a as usize % nodes.len()];
                let b = nodes[b as usize % nodes.len()];
                let g = match kind % 7 {
                    0 => nl.and(a, b),
                    1 => nl.or(a, b),
                    2 => nl.xor(a, b),
                    3 => nl.nand(a, b),
                    4 => nl.nor(a, b),
                    5 => nl.xnor(a, b),
                    _ => nl.not(a),
                };
                nodes.push(g);
            }
            for o in 0..num_outputs {
                let n = nodes[nodes.len() - 1 - o % nodes.len().min(4)];
                nl.mark_output(format!("z{o}"), n);
            }
            nl.cleaned()
        })
}

/// Profiles + a pristine evaluator for one random netlist (`None` when
/// the netlist cleaned down to nothing decomposable).
fn setup(nl: &Netlist, seed: u64) -> Option<(Vec<SubcircuitProfile>, Evaluator)> {
    let part = decompose(nl, &small_windows());
    if part.is_empty() {
        return None;
    }
    let profiles = profile_partition(nl, &part, &ProfileConfig::default(), &Pool::default());
    let ev = Evaluator::new(nl, &part, &McConfig { samples: 512, seed });
    Some((profiles, ev))
}

fn run(
    base: &Evaluator,
    profiles: &[SubcircuitProfile],
    cfg: &ExploreConfig,
    pool: &Pool,
) -> Vec<TrajectoryPoint> {
    let mut ev = base.clone();
    explore(&mut ev, profiles, cfg, pool)
}

/// Full bit-identity over every trajectory field, float fields
/// compared by bits.
macro_rules! same_trajectory {
    ($label:expr, $a:expr, $b:expr) => {
        prop_assert_eq!($a.len(), $b.len(), "{}: trajectory length", $label);
        for (s, t) in $a.iter().zip($b.iter()) {
            prop_assert_eq!(s.step, t.step, "{}", $label);
            prop_assert_eq!(
                s.changed_cluster,
                t.changed_cluster,
                "{} step {}",
                $label,
                s.step
            );
            prop_assert_eq!(&s.degrees, &t.degrees, "{} step {}", $label, s.step);
            prop_assert_eq!(s.qor, t.qor, "{} step {}", $label, s.step);
            prop_assert_eq!(
                s.model_area_um2.to_bits(),
                t.model_area_um2.to_bits(),
                "{} step {}",
                $label,
                s.step
            );
            prop_assert_eq!(
                s.model_depth_ns.to_bits(),
                t.model_depth_ns.to_bits(),
                "{} step {}",
                $label,
                s.step
            );
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The load-bearing oracle: beam `width == 1` is bit-identical to
    /// greedy — at every worker count, prune on and off, thresholded
    /// and exhaustive.
    #[test]
    fn beam_width_one_is_bit_identical_to_greedy(nl in arb_netlist(), seed in any::<u64>()) {
        let Some((profiles, base)) = setup(&nl, seed) else { return; };
        for stop in [StopCriterion::Exhaust, StopCriterion::ErrorThreshold(0.05)] {
            for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                let pool = Pool::with_parallelism(parallelism);
                for prune in [true, false] {
                    let common = ExploreConfig { stop, prune, ..ExploreConfig::default() };
                    let greedy = run(&base, &profiles, &common, &pool);
                    let beam = run(
                        &base,
                        &profiles,
                        &ExploreConfig { explorer: Explorer::Beam { width: 1 }, ..common },
                        &pool,
                    );
                    let label = format!("{stop:?}/{parallelism:?}/prune={prune}");
                    same_trajectory!(&label, &greedy, &beam);
                }
            }
        }
    }

    /// A seeded annealing run is a pure function of the seed: the
    /// worker count and the prune flag change nothing.
    #[test]
    fn anneal_is_bit_identical_across_worker_counts(nl in arb_netlist(), seed in any::<u64>()) {
        let Some((profiles, base)) = setup(&nl, seed) else { return; };
        let schedule = AnnealSchedule { steps: 48, seed: Some(seed ^ 0xA11C), ..AnnealSchedule::default() };
        let reference = run(
            &base,
            &profiles,
            &ExploreConfig {
                stop: StopCriterion::ErrorThreshold(0.08),
                explorer: Explorer::Anneal(schedule),
                ..ExploreConfig::default()
            },
            &Pool::new(1),
        );
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let pool = Pool::with_parallelism(parallelism);
            for prune in [true, false] {
                let other = run(
                    &base,
                    &profiles,
                    &ExploreConfig {
                        stop: StopCriterion::ErrorThreshold(0.08),
                        prune,
                        explorer: Explorer::Anneal(schedule),
                        ..ExploreConfig::default()
                    },
                    &pool,
                );
                let label = format!("anneal {parallelism:?}/prune={prune}");
                same_trajectory!(&label, &reference, &other);
            }
        }
    }

    /// pareto3 commits the greedy walk, so at every shared step its
    /// error axis is never worse than greedy's; the emitted surface is
    /// non-empty and internally non-dominated.
    #[test]
    fn pareto3_error_axis_never_worse_than_greedy(nl in arb_netlist(), seed in any::<u64>()) {
        let Some((profiles, base)) = setup(&nl, seed) else { return; };
        let pool = Pool::default();
        let greedy = run(&base, &profiles, &ExploreConfig::default(), &pool);
        let mut ev = base.clone();
        let exploration = explore_full(
            &mut ev,
            &profiles,
            &ExploreConfig { explorer: Explorer::Pareto3, ..ExploreConfig::default() },
            &pool,
        );
        let p3 = exploration.trajectory();
        prop_assert_eq!(p3.len(), greedy.len());
        for (g, p) in greedy.iter().zip(p3) {
            prop_assert!(
                p.qor.avg_relative <= g.qor.avg_relative,
                "step {}: pareto3 {} vs greedy {}",
                g.step, p.qor.avg_relative, g.qor.avg_relative
            );
        }
        let surface = exploration.pareto_surface().expect("pareto3 emits a surface");
        prop_assert!(!surface.is_empty());
        for (i, a) in surface.iter().enumerate() {
            for (j, b) in surface.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominates = a.error <= b.error
                    && a.area_um2 <= b.area_um2
                    && a.depth_ns <= b.depth_ns
                    && (a.error < b.error || a.area_um2 < b.area_um2 || a.depth_ns < b.depth_ns);
                prop_assert!(!dominates, "surface point {j} dominated by {i}");
            }
        }
    }
}
