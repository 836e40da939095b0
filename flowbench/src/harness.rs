//! Workload-independent measurement core: a fixed op list run in
//! seeded-shuffled passes, set-ups each followed by one untimed
//! warm-up op, per-key quantiles, and the aggregates every workload
//! reports.
//!
//! An op is a closure that times its own region of interest (so work
//! done to prepare or check an op stays outside the timer) and hands
//! back an [`OpRecord`]. The harness counts an `Err`, a panic, and a
//! fingerprint that changes between repeats of one key as failures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What one successful op reports.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Wall time of the op's timed region.
    pub wall: Duration,
    /// Deterministic work and quality counts of the op; every repeat
    /// of one key must report the same string.
    pub fingerprint: String,
    /// Area, power and delay saving (%) of the design the op chose
    /// against the exact baseline, for ops that choose a design.
    pub savings: Option<[f64; 3]>,
}

/// An op's outcome: its record, or why it failed.
pub type OpResult = Result<OpRecord, String>;

/// Every repeat of one key.
#[derive(Debug, Clone, Default)]
pub struct KeyRow {
    /// The key (`circuit` or `circuit/spec`).
    pub key: String,
    /// Wall seconds of each successful repeat, in run order.
    pub walls: Vec<f64>,
    /// The fingerprint of the first successful repeat.
    pub fingerprint: Option<String>,
    /// The savings of the first successful repeat.
    pub savings: Option<[f64; 3]>,
}

impl KeyRow {
    /// Median wall seconds over the successful repeats (`None` when
    /// every repeat failed).
    pub fn median_s(&self) -> Option<f64> {
        (!self.walls.is_empty()).then(|| median(&self.walls))
    }

    /// 90th-percentile wall seconds over the successful repeats
    /// (`None` when every repeat failed).
    pub fn p90_s(&self) -> Option<f64> {
        (!self.walls.is_empty()).then(|| quantile(&self.walls, 0.9))
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// One row per key, in key order.
    pub rows: Vec<KeyRow>,
    /// Timed ops attempted (warm-up ops are not counted).
    pub attempted: usize,
    /// Timed ops that returned `Err`, panicked, or changed fingerprint.
    pub failed: usize,
    /// One message per failure, `key: reason`.
    pub errors: Vec<String>,
    /// Median wall seconds of one set-up (build plus warm-up op).
    pub setup_s: f64,
}

/// The fixed shape of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// One name per key.
    pub keys: &'a [String],
    /// Passes over every key.
    pub passes: usize,
    /// Set-ups per run, spread evenly between the passes.
    pub setups: usize,
    /// Seeds the per-pass shuffle.
    pub seed: u64,
}

/// Run a workload: `plan.passes` passes over every key, each pass in
/// an order shuffled from `plan.seed`, split into `plan.setups` blocks.
/// Each block starts with a fresh `build()` and one untimed warm-up op
/// on what it built, so no timed op is ever the first of its state,
/// and the set-ups sample the same stretch of time as the ops.
/// `setup_s` is the median of the blocks' build + warm-up walls. A
/// failing warm-up is reported, not counted; a failing build ends the
/// run.
pub fn run<S>(
    plan: Plan<'_>,
    mut build: impl FnMut() -> Result<S, String>,
    mut warmup: impl FnMut(&S) -> OpResult,
    mut op: impl FnMut(&S, usize) -> OpResult,
) -> Result<Run, String> {
    let mut out = Run {
        rows: plan
            .keys
            .iter()
            .map(|k| KeyRow {
                key: k.clone(),
                ..KeyRow::default()
            })
            .collect(),
        ..Run::default()
    };
    let setups = plan.setups.clamp(1, plan.passes.max(1));
    let mut setup_walls = Vec::with_capacity(setups);
    for block in 0..setups {
        let t0 = Instant::now();
        let state = build()?;
        if let Err(e) = guarded(|| warmup(&state)) {
            eprintln!("flowbench: warm-up op failed (not counted): {e}");
        }
        setup_walls.push(t0.elapsed().as_secs_f64());
        for pass in block * plan.passes / setups..(block + 1) * plan.passes / setups {
            for k in pass_order(plan.keys.len(), plan.seed, pass as u64) {
                out.attempted += 1;
                let row = &mut out.rows[k];
                let outcome = guarded(|| op(&state, k)).and_then(|rec| match &row.fingerprint {
                    Some(fp) if *fp != rec.fingerprint => Err(format!(
                        "fingerprint changed between repeats: {fp} then {}",
                        rec.fingerprint
                    )),
                    _ => Ok(rec),
                });
                match outcome {
                    Ok(rec) => {
                        row.walls.push(rec.wall.as_secs_f64());
                        row.savings = row.savings.or(rec.savings);
                        row.fingerprint.get_or_insert(rec.fingerprint);
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(format!("{}: {e}", row.key));
                    }
                }
            }
        }
    }
    out.setup_s = median(&setup_walls);
    Ok(out)
}

/// Run `f`, turning a panic into an `Err` carrying its message.
fn guarded(f: impl FnOnce() -> OpResult) -> OpResult {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string payload".into())
        )),
    }
}

impl Run {
    /// Per-key 90th percentiles of the keys with at least one success.
    pub fn p90s(&self) -> Vec<f64> {
        self.rows.iter().filter_map(KeyRow::p90_s).collect()
    }

    /// `op_p90_s`: geometric mean over keys of the per-key 90th
    /// percentile.
    pub fn op_p90_s(&self) -> f64 {
        geomean(&self.p90s())
    }

    /// `run_p90_s`: sum over keys of the per-key 90th percentile.
    pub fn run_p90_s(&self) -> f64 {
        self.p90s().iter().sum()
    }

    /// `ok_frac`: ops that succeeded over ops attempted.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Mean over keys of each saving (area, power, delay %); `None`
    /// when no key reports savings.
    pub fn mean_savings(&self) -> Option<[f64; 3]> {
        let all: Vec<[f64; 3]> = self.rows.iter().filter_map(|r| r.savings).collect();
        if all.is_empty() {
            return None;
        }
        let n = all.len() as f64;
        Some([0, 1, 2].map(|i| all.iter().map(|s| s[i]).sum::<f64>() / n))
    }
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `p` quantile (`0 <= p <= 1`), interpolated linearly between
/// the two nearest order statistics: rank `p * (n - 1)` of the sorted
/// values, as numpy's default and `statistics.quantiles(...,
/// method="inclusive")` compute it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The splitmix64 output function: a fixed, well-mixed 64-bit hash
/// used for every seed derivation in the benchmark.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key order of one pass: a Fisher–Yates shuffle of `0..n` drawn
/// from `(seed, pass)`, so no key always runs first or right after the
/// heaviest one.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = splitmix64(seed ^ splitmix64(pass));
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("k{i}")).collect()
    }

    fn ok(secs: f64, fp: &str) -> OpResult {
        Ok(OpRecord {
            wall: Duration::from_secs_f64(secs),
            fingerprint: fp.into(),
            savings: None,
        })
    }

    /// Run with one set-up of no state and an instant warm-up.
    fn simple(keys: &[String], passes: usize, seed: u64, op: impl FnMut(usize) -> OpResult) -> Run {
        let mut op = op;
        let plan = Plan {
            keys,
            passes,
            setups: 1,
            seed,
        };
        run(plan, || Ok(()), |_| ok(0.0, "w"), |_, k| op(k)).expect("set-up cannot fail")
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert!((quantile(&[1.0, 2.0, 3.0], 0.9) - 2.8).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn geomean_weights_every_key_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn per_key_p90s_feed_geomean_and_sum() {
        // Key 0 takes 1, 2, 3 s over the passes (p90 2.8 s); key 1
        // takes 4 s each.
        let mut calls = [0usize; 2];
        let r = simple(&keys(2), 3, 7, |k| {
            calls[k] += 1;
            ok(if k == 0 { calls[0] as f64 } else { 4.0 }, "same")
        });
        assert_eq!(r.rows[0].median_s(), Some(2.0));
        let p90s = r.p90s();
        assert!((p90s[0] - 2.8).abs() < 1e-12 && p90s[1] == 4.0, "{p90s:?}");
        assert!((r.op_p90_s() - 11.2f64.sqrt()).abs() < 1e-12);
        assert!((r.run_p90_s() - 6.8).abs() < 1e-12);
        assert_eq!((r.attempted, r.failed), (6, 0));
        assert_eq!(r.ok_frac(), 1.0);
    }

    #[test]
    fn failing_and_panicking_ops_count_against_ok_frac() {
        let mut n = 0;
        let r = simple(&keys(2), 2, 1, |k| {
            n += 1;
            match (k, n) {
                (0, _) => ok(1.0, "a"),
                (1, 1..=2) => Err("forced failure".into()),
                _ => panic!("forced panic"),
            }
        });
        assert_eq!((r.attempted, r.failed), (4, 2));
        assert_eq!(r.ok_frac(), 0.5);
        assert!(r.errors.iter().any(|e| e.contains("forced failure")));
        assert!(r.errors.iter().any(|e| e.contains("forced panic")));
        assert!(r.rows[1].walls.is_empty());
    }

    #[test]
    fn fingerprint_change_between_repeats_is_a_failure() {
        let mut n = 0;
        let r = simple(&keys(1), 3, 0, |_| {
            n += 1;
            ok(1.0, if n == 2 { "drift" } else { "fp" })
        });
        assert_eq!((r.attempted, r.failed), (3, 1));
        assert_eq!(r.rows[0].walls.len(), 2);
        assert!(r.errors[0].contains("fingerprint changed"));
    }

    #[test]
    fn warmup_is_kept_out_of_every_metric() {
        for warm in [ok(1000.0, "other"), Err("warm-up broke".into())] {
            let mut warmups = 0;
            let plan = Plan {
                keys: &keys(2),
                passes: 3,
                setups: 3,
                seed: 5,
            };
            let r = run(
                plan,
                || Ok(10usize),
                |_| {
                    warmups += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    warm.clone()
                },
                |state, k| ok(*state as f64 + k as f64, "fp"),
            )
            .expect("set-up cannot fail");
            assert_eq!(warmups, 3);
            // The warm-up's time lands in set-up only.
            assert!(r.setup_s >= 0.02, "{}", r.setup_s);
            assert_eq!((r.attempted, r.failed), (6, 0));
            assert_eq!(r.p90s(), vec![10.0, 11.0]);
            assert!(r.rows.iter().all(|row| row.walls.len() == 3));
            assert_eq!(r.rows[0].fingerprint.as_deref(), Some("fp"));
        }
    }

    #[test]
    fn setups_split_the_passes_and_report_their_median() {
        // Five passes over one key under three set-ups, taking 10, 90
        // and 30 ms: blocks of 1, 2 and 2 passes, median 30 ms.
        let mut built = 0u64;
        let mut seen = Vec::new();
        let plan = Plan {
            keys: &keys(1),
            passes: 5,
            setups: 3,
            seed: 0,
        };
        let r = run(
            plan,
            || {
                built += 1;
                std::thread::sleep(Duration::from_millis([10, 90, 30][built as usize - 1]));
                Ok(built)
            },
            |_| ok(0.0, "w"),
            |state, _| {
                seen.push(*state);
                ok(1.0, "fp")
            },
        )
        .expect("set-up cannot fail");
        assert_eq!(seen, vec![1, 2, 2, 3, 3]);
        assert!((0.03..0.09).contains(&r.setup_s), "{}", r.setup_s);
    }

    #[test]
    fn failing_set_up_ends_the_run() {
        let plan = Plan {
            keys: &keys(1),
            passes: 2,
            setups: 2,
            seed: 0,
        };
        let r = run(
            plan,
            || Err::<(), _>("no".to_string()),
            |_| ok(0.0, "w"),
            |_, _| ok(1.0, "fp"),
        );
        assert_eq!(r.unwrap_err(), "no");
    }

    #[test]
    fn mean_savings_averages_keys_that_report_them() {
        let r = simple(&keys(3), 1, 0, |k| {
            let mut rec = ok(1.0, "fp")?;
            rec.savings = (k < 2).then_some([10.0 * (k + 1) as f64, 2.0, -1.0]);
            Ok(rec)
        });
        assert_eq!(r.mean_savings(), Some([15.0, 2.0, -1.0]));
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(35, 11, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..35).collect::<Vec<_>>());
        assert_eq!(a, pass_order(35, 11, 0));
        assert_ne!(a, pass_order(35, 11, 1));
        assert_ne!(a, pass_order(35, 12, 0));
    }
}
