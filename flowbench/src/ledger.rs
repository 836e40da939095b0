//! The traced run's per-layer ledger. Each public call into a layer
//! is wrapped in a `blasys_obs::Tracer` span and timed (wall and
//! process CPU); a `blasys_obs::Registry` attached through
//! `FlowConfig::metrics` collects the program's existing counters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blasys_obs::{Registry, Snapshot, SnapshotValue, Tracer};

/// The layer a wrapped call belongs to (its span name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `FlowSession::open`: lint `verify_netlist`, then `decompose`.
    Decompose,
    /// `FlowSession::profile`: BMF and variant synthesis.
    Profile,
    /// First `FlowSession::samples()`: golden simulation.
    EvaluatorBuild,
    /// `FlowSession::explore`, one per engine.
    ExploreGreedy,
    /// `FlowSession::explore` with a beam engine.
    ExploreBeam,
    /// `FlowSession::explore` with the annealing engine.
    ExploreAnneal,
    /// `synthesize_step`, `estimate`, `to_blif`, `to_verilog`.
    Synth,
    /// `BlasysResult::certify_step_observed`.
    Sat,
}

impl Layer {
    fn span(self) -> &'static str {
        match self {
            Layer::Decompose => "decompose",
            Layer::Profile => "profile",
            Layer::EvaluatorBuild => "evaluator.build",
            Layer::ExploreGreedy => "explore.greedy",
            Layer::ExploreBeam => "explore.beam",
            Layer::ExploreAnneal => "explore.anneal",
            Layer::Synth => "synth",
            Layer::Sat => "sat",
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Time {
    wall_s: f64,
    cpu_s: f64,
}

/// Spans, timings and counters of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// The benchmark's own spans around every layer call.
    pub tracer: Tracer,
    /// Attached to every traced session through `FlowConfig::metrics`.
    pub registry: Arc<Registry>,
    times: Mutex<BTreeMap<(Layer, &'static str), Time>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
    /// Registry counter deltas of work kept out of the ledger.
    excluded: Mutex<BTreeMap<String, u64>>,
}

/// Run `f` as one call into `layer` on behalf of `circuit`, recorded in
/// `ledger` when tracing (a plain call otherwise).
pub fn call<T>(
    ledger: Option<&Ledger>,
    layer: Layer,
    circuit: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let Some(ledger) = ledger else { return f() };
    let _span = ledger.tracer.span(layer.span());
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let mut times = ledger
        .times
        .lock()
        .expect("ledger lock poisoned by a panicking op");
    let t = times.entry((layer, circuit)).or_default();
    t.wall_s += wall_s;
    t.cpu_s += cpu_s;
    out
}

/// Add `n` to a benchmark-side count (probes, steps, SAT conflicts).
pub fn count(ledger: Option<&Ledger>, name: &'static str, n: u64) {
    if let Some(ledger) = ledger {
        *ledger
            .counts
            .lock()
            .expect("ledger lock poisoned by a panicking op")
            .entry(name)
            .or_default() += n;
    }
}

/// Run `f` (a warm-up op on traced sessions) and keep the registry
/// counts it adds out of every ledger metric.
pub fn excluded<T>(ledger: Option<&Ledger>, f: impl FnOnce() -> T) -> T {
    let Some(ledger) = ledger else { return f() };
    let before = ledger.registry.snapshot();
    let out = f();
    let after = ledger.registry.snapshot();
    let mut excluded = ledger
        .excluded
        .lock()
        .expect("ledger lock poisoned by a panicking op");
    for e in &after.entries {
        if let Some(now) = after.counter(&e.name) {
            *excluded.entry(e.name.clone()).or_default() +=
                now - before.counter(&e.name).unwrap_or(0);
        }
    }
    out
}

/// Process CPU time (user + system) from `/proc/self/stat`, in seconds
/// (0 where the file is unavailable).
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in clock ticks (USER_HZ,
    // 100 on Linux).
    let mut rest = stat
        .rsplit_once(')')
        .map_or("", |(_, r)| r)
        .split_whitespace();
    let tick = |f: Option<&str>| f.and_then(|x| x.parse::<u64>().ok());
    match (tick(rest.nth(11)), tick(rest.next())) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

/// One per-layer metric with the end-to-end metric it should move.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Metric name, as listed under `per_layer` in `BENCHMARK.json`.
    pub name: String,
    /// Value measured in the traced run.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Which end-to-end metric on which workload it should move.
    pub moves: &'static str,
}

const PROFILE: &str = "oneshot op_p90_s,run_p90_s; explore,certify setup_s";
const EVALUATOR: &str = "oneshot op_p90_s; explore setup_s";
const EXPLORE: &str = "explore op_p90_s,run_p90_s; oneshot op_p90_s";
const SYNTH: &str = "oneshot op_p90_s";
const SAT: &str = "certify op_p90_s,run_p90_s";
const POOL: &str = "oneshot,explore op_p90_s";

/// Number of pool workers the flow runs with.
const WORKERS: usize = crate::flow::THREADS;

impl Ledger {
    fn wall(&self, pick: impl Fn(Layer, &str) -> bool) -> Time {
        let times = self
            .times
            .lock()
            .expect("ledger lock poisoned by a panicking op");
        times
            .iter()
            .filter(|((l, c), _)| pick(*l, c))
            .fold(Time::default(), |acc, (_, t)| Time {
                wall_s: acc.wall_s + t.wall_s,
                cpu_s: acc.cpu_s + t.cpu_s,
            })
    }

    fn counted(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("ledger lock poisoned by a panicking op")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Every per-layer metric of the run, in a fixed order. `circuits`
    /// names the per-circuit `profile.s.<circuit>` entries.
    pub fn metrics(&self, circuits: &[&'static str]) -> Vec<LayerMetric> {
        let snap = self.registry.snapshot();
        let excluded = self
            .excluded
            .lock()
            .expect("ledger lock poisoned by a panicking op");
        let c = |name: &str| {
            (snap.counter(name).unwrap_or(0) - excluded.get(name).copied().unwrap_or(0)) as f64
        };
        let pool = |field: &str| -> f64 {
            (0..WORKERS)
                .map(|w| c(&format!("pool.worker{w}.{field}")))
                .sum()
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let util = |t: Time| ratio(t.cpu_s, t.wall_s * WORKERS as f64);
        let layer = |l: Layer| self.wall(|x, _| x == l);
        let explore = self.wall(|l, _| {
            matches!(
                l,
                Layer::ExploreGreedy | Layer::ExploreBeam | Layer::ExploreAnneal
            )
        });
        let profile = layer(Layer::Profile);
        let probes = self.counted("explore.probes") as f64;
        let sat = layer(Layer::Sat);
        let conflicts = self.counted("sat.conflicts") as f64;
        let m = |name: &str, value: f64, unit, moves| LayerMetric {
            name: name.into(),
            value,
            unit,
            moves,
        };
        let mut out = vec![
            m("decompose.s", layer(Layer::Decompose).wall_s, "s", PROFILE),
            m("profile.s", profile.wall_s, "s", PROFILE),
        ];
        for &circuit in circuits {
            let t = self.wall(|l, c| l == Layer::Profile && c == circuit);
            out.push(m(&format!("profile.s.{circuit}"), t.wall_s, "s", PROFILE));
        }
        out.extend([
            m(
                "profile.bmf_s",
                histogram_sum(&snap, "bmf.factorize_wall_ns") / 1e9,
                "s",
                PROFILE,
            ),
            m(
                "profile.bmf_candidates",
                c("bmf.candidates_scored"),
                "count",
                PROFILE,
            ),
            m(
                "profile.windows",
                c("bmf.windows_factorized"),
                "count",
                PROFILE,
            ),
            m("profile.cpu_util", util(profile), "frac", PROFILE),
            m(
                "evaluator.build_s",
                layer(Layer::EvaluatorBuild).wall_s,
                "s",
                EVALUATOR,
            ),
            m("explore.s", explore.wall_s, "s", EXPLORE),
            m(
                "explore.s.greedy",
                layer(Layer::ExploreGreedy).wall_s,
                "s",
                EXPLORE,
            ),
            m(
                "explore.s.beam",
                layer(Layer::ExploreBeam).wall_s,
                "s",
                EXPLORE,
            ),
            m(
                "explore.s.anneal",
                layer(Layer::ExploreAnneal).wall_s,
                "s",
                EXPLORE,
            ),
            m("explore.probes", probes, "count", EXPLORE),
            m(
                "explore.steps",
                self.counted("explore.steps") as f64,
                "count",
                EXPLORE,
            ),
            m(
                "explore.us_per_probe",
                ratio(explore.wall_s * 1e6, probes),
                "us",
                EXPLORE,
            ),
            m(
                "explore.prune_frac",
                ratio(c("qor.probes_pruned"), c("qor.probes")),
                "frac",
                EXPLORE,
            ),
            m(
                "explore.cone_hit_frac",
                ratio(
                    c("qor.cone_cache.hits"),
                    c("qor.cone_cache.hits") + c("qor.cone_cache.misses"),
                ),
                "frac",
                EXPLORE,
            ),
            m("explore.commits", c("qor.commits"), "count", EXPLORE),
            m("explore.cpu_util", util(explore), "frac", EXPLORE),
            m("synth.s", layer(Layer::Synth).wall_s, "s", SYNTH),
            m("sat.s", sat.wall_s, "s", SAT),
            m(
                "sat.probes",
                self.counted("sat.probes") as f64,
                "count",
                SAT,
            ),
            m("sat.conflicts", conflicts, "count", SAT),
            m(
                "sat.us_per_conflict",
                ratio(sat.wall_s * 1e6, conflicts),
                "us",
                SAT,
            ),
            m("pool.tasks", pool("tasks"), "count", POOL),
            m("pool.steals", pool("steals"), "count", POOL),
            m("pool.idle", pool("idle"), "count", POOL),
        ]);
        out
    }
}

fn histogram_sum(snap: &Snapshot, name: &str) -> f64 {
    snap.entries
        .iter()
        .find(|e| e.name == name)
        .and_then(|e| match &e.value {
            SnapshotValue::Histogram(h) => Some(h.sum as f64),
            _ => None,
        })
        .unwrap_or(0.0)
}
