//! The three workloads on the generated Table-1 circuits: what one op
//! is, what set-up does, and how each op's output is checked.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use blasys_bench::stimulus_for;
use blasys_core::session::{ExploreSpec, FlowConfig, FlowSession, Profiled};
use blasys_core::{
    AnnealSchedule, BlasysResult, Explorer, Parallelism, QorMetric, TrajectoryPoint,
};
use blasys_logic::blif::to_blif;
use blasys_logic::equiv::Equivalence;
use blasys_logic::sim::random_stimulus;
use blasys_logic::verilog::to_verilog;
use blasys_logic::Netlist;
use blasys_synth::estimate::{estimate, DesignMetrics};

use crate::check;
use crate::harness::{self, splitmix64, OpRecord, OpResult, Plan, Run};
use crate::ledger::{self, Layer, Ledger};

/// Pool workers of every session (`FlowConfig::parallelism`).
pub const THREADS: usize = 2;
/// Monte-Carlo samples requested per circuit (the CLI default).
pub const SAMPLES: usize = 10_000;
/// The circuits of every workload: Table 1 without FIR.
pub const CIRCUITS: [&str; 5] = ["Adder32", "Mult8", "BUT", "MAC", "SAD"];
/// The metric driving every exploration.
const METRIC: QorMetric = QorMetric::AvgRelative;

/// One generated circuit with its seeded stimulus.
pub struct Circuit {
    /// Table-1 name.
    pub name: &'static str,
    /// The generated netlist.
    pub netlist: Netlist,
    /// `stimulus[input][block]`, handed to the flow and to the checks.
    pub stimulus: Vec<Vec<u64>>,
    seed: u64,
}

impl Circuit {
    /// Generate `name` and its stimulus from the workload seed: the
    /// accumulation trace for MAC and SAD, uniform inputs otherwise.
    fn generate(name: &'static str, seed: u64) -> Circuit {
        let netlist = blasys_circuits::benchmark(name)
            .expect("every benchmark circuit is in the Table-1 registry")
            .build();
        let seed = splitmix64(seed ^ splitmix64(name.bytes().fold(0, |h, b| h * 31 + b as u64)));
        let stimulus = stimulus_for(name, &netlist, SAMPLES, seed)
            .unwrap_or_else(|| random_stimulus(&netlist, SAMPLES.div_ceil(64), seed));
        Circuit {
            name,
            netlist,
            stimulus,
            seed,
        }
    }

    /// The session configuration: 2 workers, the generated stimulus,
    /// and the ledger's registry when tracing.
    fn config(&self, ledger: Option<&Ledger>) -> FlowConfig {
        let cfg = FlowConfig::new()
            .parallelism(Parallelism::Threads(THREADS))
            .samples(SAMPLES)
            .seed(self.seed)
            .stimulus(self.stimulus.clone());
        match ledger {
            Some(l) => cfg.metrics(Arc::clone(&l.registry)),
            None => cfg,
        }
    }

    /// Open, profile and force the evaluator: everything before the
    /// first exploration.
    fn profiled(
        &self,
        cfg: FlowConfig,
        ledger: Option<&Ledger>,
    ) -> Result<FlowSession<Profiled>, String> {
        let session = ledger::call(ledger, Layer::Decompose, self.name, || {
            FlowSession::open(&self.netlist, cfg)
        })
        .map_err(|e| format!("open: {e}"))?;
        let session = ledger::call(ledger, Layer::Profile, self.name, || session.profile())
            .map_err(|e| format!("profile: {e}"))?;
        let samples = ledger::call(ledger, Layer::EvaluatorBuild, self.name, || {
            session.samples()
        });
        black_box(samples);
        Ok(session)
    }
}

fn generate_all(seed: u64) -> Vec<Circuit> {
    CIRCUITS
        .iter()
        .map(|&n| Circuit::generate(n, seed))
        .collect()
}

/// Index of the warm-up circuit, BUT: the cheapest in every workload.
fn warm_index() -> usize {
    CIRCUITS
        .iter()
        .position(|&n| n == "BUT")
        .expect("BUT is a workload circuit")
}

/// Exploration spec of a key, with its threshold and ledger layer.
#[derive(Debug, Clone, Copy)]
struct Spec {
    explorer: Explorer,
    threshold: f64,
}

impl Spec {
    fn greedy(threshold: f64) -> Spec {
        Spec {
            explorer: Explorer::Greedy,
            threshold,
        }
    }

    fn explore_spec(self) -> ExploreSpec {
        ExploreSpec::new()
            .metric(METRIC)
            .threshold(self.threshold)
            .explorer(self.explorer)
    }

    fn layer(self) -> Layer {
        match self.explorer {
            Explorer::Beam { .. } => Layer::ExploreBeam,
            Explorer::Anneal(_) => Layer::ExploreAnneal,
            _ => Layer::ExploreGreedy,
        }
    }

    fn label(self) -> String {
        let engine = match self.explorer {
            Explorer::Beam { width } => format!("beam:{width}"),
            Explorer::Anneal(_) => "anneal".into(),
            _ => "greedy".into(),
        };
        format!("{engine}@{}", self.threshold)
    }
}

/// Run one exploration, tallying its probes and steps when tracing.
fn explore(
    ledger: Option<&Ledger>,
    c: &Circuit,
    session: &FlowSession<Profiled>,
    spec: Spec,
) -> blasys_core::session::Exploration {
    let es = spec.explore_spec();
    let ex = ledger::call(ledger, spec.layer(), c.name, || session.explore(&es));
    ledger::count(ledger, "explore.probes", ex.probes());
    ledger::count(ledger, "explore.steps", ex.trajectory().len() as u64 - 1);
    ex
}

/// The design an exploration settles on: the deepest step within the
/// threshold.
fn chosen_step(result: &BlasysResult, spec: Spec) -> Result<usize, String> {
    result
        .best_step_under(METRIC, spec.threshold)
        .ok_or_else(|| format!("no step within {}", spec.threshold))
}

/// Check the chosen design gate by gate against the recorded QoR.
fn check_design(
    c: &Circuit,
    point: &TrajectoryPoint,
    design: &Netlist,
    threshold: f64,
) -> Result<(), String> {
    check::design_matches(
        &c.netlist,
        design,
        &c.stimulus,
        &point.qor,
        point.qor.value(METRIC),
        threshold,
    )
}

fn savings(chosen: &DesignMetrics, baseline: &DesignMetrics) -> [f64; 3] {
    let s = chosen.savings_vs(baseline);
    [s.area_pct, s.power_pct, s.delay_pct]
}

/// The fingerprint of an exploration's chosen design.
fn design_fingerprint(probes: u64, point: &TrajectoryPoint, chosen: &DesignMetrics) -> String {
    format!(
        "probes={probes} step={} avg_rel={:016x} worst={} area={:016x}",
        point.step,
        point.qor.avg_relative.to_bits(),
        point.qor.worst_absolute,
        chosen.area_um2.to_bits()
    )
}

/// `oneshot`: one fresh session per op, `open` through writing the
/// chosen design, as `blasys run` does.
pub fn oneshot(
    seed: u64,
    passes: usize,
    setups: usize,
    ledger: Option<&Ledger>,
) -> Result<Run, String> {
    const THRESHOLD: f64 = 0.05;
    let spec = Spec::greedy(THRESHOLD);
    let op = |c: &Circuit, ledger: Option<&Ledger>| -> OpResult {
        let cfg = c.config(ledger);
        let t0 = Instant::now();
        let session = c.profiled(cfg, ledger)?;
        let ex = explore(ledger, c, &session, spec);
        let probes = ex.probes();
        let result = session.into_result(ex);
        let step = chosen_step(&result, spec)?;
        let (design, chosen, baseline) = ledger::call(ledger, Layer::Synth, c.name, || {
            let design = result.synthesize_step(step);
            let chosen = estimate(&design, result.library(), result.estimate_config());
            let baseline = result.baseline_metrics();
            black_box((to_blif(&design).len(), to_verilog(&design).len()));
            (design, chosen, baseline)
        });
        let wall = t0.elapsed();
        let point = &result.trajectory()[step];
        check_design(c, point, &design, THRESHOLD)?;
        match result.prove_step_exact(0) {
            Equivalence::Equal { .. } => {}
            other => return Err(format!("exact step 0 is not equivalent: {other:?}")),
        }
        let variants: usize = result.profiles().iter().map(|p| p.variants.len()).sum();
        Ok(OpRecord {
            wall,
            fingerprint: format!(
                "windows={} variants={variants} steps={} {}",
                result.profiles().len(),
                result.trajectory().len() - 1,
                design_fingerprint(probes, point, &chosen)
            ),
            savings: Some(savings(&chosen, &baseline)),
        })
    };
    let keys: Vec<String> = CIRCUITS.iter().map(|n| n.to_string()).collect();
    let plan = Plan {
        keys: &keys,
        passes,
        setups,
        seed,
    };
    harness::run(
        plan,
        || Ok(generate_all(seed)),
        |cs| op(&cs[warm_index()], None),
        |cs, k| op(&cs[k], ledger),
    )
}

/// The seven exploration specs of the `explore` workload.
fn explore_specs() -> Vec<Spec> {
    let mut specs: Vec<Spec> = [0.01, 0.02, 0.05, 0.1, 0.25].map(Spec::greedy).to_vec();
    specs.push(Spec {
        explorer: Explorer::Beam { width: 2 },
        threshold: 0.05,
    });
    specs.push(Spec {
        explorer: Explorer::Anneal(AnnealSchedule::default()),
        threshold: 0.05,
    });
    specs
}

/// A profiled circuit of the `explore` and `certify` workloads.
struct ProfiledCircuit {
    circuit: Circuit,
    session: FlowSession<Profiled>,
    /// Metrics of the exact resynthesis, the base of every saving.
    baseline: DesignMetrics,
}

/// Set-up shared by `explore` and `certify`: generate, profile and
/// force the evaluator of every circuit, and price its exact design.
fn profile_all(seed: u64, ledger: Option<&Ledger>) -> Result<Vec<ProfiledCircuit>, String> {
    generate_all(seed)
        .into_iter()
        .map(|circuit| {
            let session = circuit.profiled(circuit.config(ledger), ledger)?;
            // Pricing the exact design explores once with no probes;
            // keep its counts out of the ledger.
            let baseline = ledger::excluded(ledger, || {
                let exact = session.explore(&ExploreSpec::new().probe_budget(0));
                session.result(&exact).baseline_metrics()
            });
            Ok(ProfiledCircuit {
                circuit,
                session,
                baseline,
            })
        })
        .collect()
}

/// `explore`: profile each circuit once in set-up, then explore it
/// under seven specs per pass, as `serve` and `batch --thresholds` do.
pub fn explore_workload(
    seed: u64,
    passes: usize,
    setups: usize,
    ledger: Option<&Ledger>,
) -> Result<Run, String> {
    let op = |p: &ProfiledCircuit, spec: Spec, ledger: Option<&Ledger>| -> OpResult {
        let t0 = Instant::now();
        let ex = explore(ledger, &p.circuit, &p.session, spec);
        let wall = t0.elapsed();
        let probes = ex.probes();
        let result = p.session.result(&ex);
        let step = chosen_step(&result, spec)?;
        let design = result.synthesize_step(step);
        let point = &result.trajectory()[step];
        check_design(&p.circuit, point, &design, spec.threshold)?;
        let chosen = estimate(&design, result.library(), result.estimate_config());
        Ok(OpRecord {
            wall,
            fingerprint: format!(
                "steps={} {}",
                result.trajectory().len() - 1,
                design_fingerprint(probes, point, &chosen)
            ),
            savings: Some(savings(&chosen, &p.baseline)),
        })
    };
    let mut keys = Vec::new();
    let mut specs = Vec::new();
    for (ci, name) in CIRCUITS.iter().enumerate() {
        for spec in explore_specs() {
            keys.push(format!("{name}/{}", spec.label()));
            specs.push((ci, spec));
        }
    }
    let plan = Plan {
        keys: &keys,
        passes,
        setups,
        seed,
    };
    harness::run(
        plan,
        || profile_all(seed, ledger),
        |ps| ledger::excluded(ledger, || op(&ps[warm_index()], Spec::greedy(0.05), None)),
        |ps, k| {
            let (ci, spec) = specs[k];
            op(&ps[ci], spec, ledger)
        },
    )
}

/// The certify thresholds of each circuit. Three heavy keys are left
/// out because the design they certify moves with the seed, and their
/// SAT cost with it, so one key would set the run-to-run spread of
/// `run_p90_s`: Mult8 below 0.25 (0.1 took 58 000 to 92 000 conflicts over
/// six seeds, 0.05 took 11 s) and MAC at 0.01 (70 000 to 157 000
/// conflicts over seeds 1 to 10).
fn certify_thresholds(name: &str) -> &'static [f64] {
    match name {
        "Mult8" => &[0.25],
        "MAC" => &[0.02, 0.05, 0.1],
        _ => &[0.01, 0.02, 0.05, 0.1],
    }
}

/// One certify key after set-up: the explored result and its step.
struct CertKey {
    circuit: usize,
    spec: Spec,
    result: BlasysResult,
    step: usize,
    /// Savings of the certified design against the exact baseline.
    savings: [f64; 3],
}

/// `certify`: explore every key's threshold in set-up, then certify
/// the chosen step's worst-case error with SAT, as `blasys certify`
/// adds.
pub fn certify_workload(
    seed: u64,
    passes: usize,
    setups: usize,
    ledger: Option<&Ledger>,
) -> Result<Run, String> {
    let op = |ps: &[ProfiledCircuit], key: &CertKey, ledger: Option<&Ledger>| -> OpResult {
        let p = &ps[key.circuit];
        let mut result = key.result.clone();
        let mut sat_probes = 0u64;
        let t0 = Instant::now();
        let point = ledger::call(ledger, Layer::Sat, p.circuit.name, || {
            result.certify_step_observed(key.step, &mut |_| sat_probes += 1)
        });
        let wall = t0.elapsed();
        let cert = &point.certificate;
        ledger::count(ledger, "sat.probes", sat_probes);
        ledger::count(ledger, "sat.conflicts", cert.stats.conflicts);
        if result.trajectory()[key.step].qor.certified_worst_absolute != Some(cert.worst_absolute) {
            return Err("certified bound not stamped into the QoR record".into());
        }
        check::certificate_holds(
            &p.circuit.netlist,
            &result.synthesize_step(key.step),
            &point,
        )?;
        Ok(OpRecord {
            wall,
            fingerprint: format!(
                "step={} sat_probes={} conflicts={} worst={} sampled={}",
                key.step,
                cert.probes,
                cert.stats.conflicts,
                cert.worst_absolute,
                point.sampled_worst_absolute
            ),
            savings: Some(key.savings),
        })
    };
    let build = || -> Result<(Vec<ProfiledCircuit>, Vec<CertKey>), String> {
        let ps = profile_all(seed, ledger)?;
        let mut keys = Vec::new();
        for (circuit, p) in ps.iter().enumerate() {
            for &t in certify_thresholds(p.circuit.name) {
                let spec = Spec::greedy(t);
                let ex = explore(ledger, &p.circuit, &p.session, spec);
                let result = p.session.result(&ex);
                let step = chosen_step(&result, spec)?;
                let chosen = result.metrics_step(step);
                keys.push(CertKey {
                    circuit,
                    spec,
                    savings: savings(&chosen, &p.baseline),
                    result,
                    step,
                });
            }
        }
        Ok((ps, keys))
    };
    let names: Vec<String> = CIRCUITS
        .iter()
        .flat_map(|name| {
            certify_thresholds(name)
                .iter()
                .map(move |&t| format!("{name}/{}", Spec::greedy(t).label()))
        })
        .collect();
    let plan = Plan {
        keys: &names,
        passes,
        setups,
        seed,
    };
    harness::run(
        plan,
        build,
        |(ps, keys)| {
            let warm = keys
                .iter()
                .find(|k| k.circuit == warm_index() && k.spec.threshold == 0.05)
                .expect("BUT@0.05 is a certify key");
            ledger::excluded(ledger, || op(ps, warm, None))
        },
        |(ps, keys), k| op(ps, &keys[k], ledger),
    )
}
