//! Shared argument parsing: errors, the common flow options, the
//! `--progress` observer, and small I/O helpers used by every
//! subcommand.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Duration;

use blasys_core::report::{parse_explorer, parse_metric};
use blasys_core::session::{
    ExploreSpec, FlowConfig, FlowObserver, FlowSession, FlowStage, Profiled,
};
use blasys_core::{
    Explorer, FlowError, Observers, Parallelism, QorMetric, SubcircuitProfile, TraceObserver,
    TrajectoryPoint,
};
use blasys_lint::{run_error_lints, LintConfig, LintTarget};
use blasys_logic::blif::parse_blif_doc;
use blasys_logic::Netlist;
use blasys_obs::{FlightRecorder, Registry, SpanGuard, Tracer};

/// A subcommand failure, mapped onto the process exit code.
pub enum CliError {
    /// Bad invocation (unknown flag, missing argument) — exit 2.
    Usage(String),
    /// The input circuit cannot be driven through the flow (no gates,
    /// too many outputs, ...) — printed as the [`FlowError`] `Display`
    /// text, exit 2.
    Flow(String),
    /// Runtime failure (I/O, parse) — exit 1.
    Runtime(String),
    /// `--deny warnings` turned warning-level lint findings into a
    /// failure — exit 3 (distinct from exit 2 so scripts can tell
    /// "broken" from "merely suspicious").
    DeniedWarnings(String),
}

impl CliError {
    /// Construct a usage error.
    pub fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    /// Construct a runtime error.
    pub fn runtime(msg: impl Into<String>) -> CliError {
        CliError::Runtime(msg.into())
    }

    /// Wrap a [`FlowError`] for `file`.
    pub fn flow(file: &str, e: FlowError) -> CliError {
        CliError::Flow(format!("{file}: {e}"))
    }
}

/// The largest `--threads` count accepted: well above the hardware
/// threads of common hosts, well below what the OS allows a process.
pub const MAX_THREADS: usize = 1024;

/// The flow options shared by `run`, `certify`, `profile`, `sweep` and
/// `batch`.
pub struct FlowOpts {
    /// Monte-Carlo sample count (`--samples`). The evaluator rounds
    /// this up to a multiple of 64; reports carry the rounded count.
    pub samples: usize,
    /// Stimulus RNG seed (`--seed`).
    pub seed: u64,
    /// Stop threshold for the driving metric (`--error-threshold`).
    pub threshold: f64,
    /// The driving metric (`--metric`).
    pub metric: QorMetric,
    /// The exploration engine (`--explorer`).
    pub explorer: Explorer,
    /// Worker threads (`--threads`); `None` = flag not given.
    pub parallelism: Option<Parallelism>,
    /// Decomposition window limits k×m (`--limits`).
    pub limits: (usize, usize),
    /// Stream stage / window / trajectory progress to stderr
    /// (`--progress`).
    pub progress: bool,
    /// Write a chrome://tracing JSON trace of the whole command here
    /// (`--trace-out`).
    pub trace_out: Option<String>,
    /// Collect and print a metrics snapshot (`--metrics`).
    pub metrics: bool,
    /// Lazily-built observability handles, shared by every session the
    /// command opens (batch opens one per circuit).
    obs: OnceLock<ObsHandles>,
}

/// The observability instruments behind `--trace-out` / `--metrics`:
/// one tracer, registry, and flight recorder per command invocation.
pub struct ObsHandles {
    /// Span tracer; exported as chrome-trace JSON by
    /// [`FlowOpts::finish`].
    pub tracer: Arc<Tracer>,
    /// Metrics registry the flow populates (`flow.*`, `qor.*`,
    /// `pool.*`, and — for certify — `sat.*`).
    pub registry: Arc<Registry>,
    /// Bounded ring of recent milestones, dumped on panic and on flow
    /// errors.
    pub flight: Arc<FlightRecorder>,
}

impl Default for FlowOpts {
    fn default() -> FlowOpts {
        FlowOpts {
            samples: 10_000,
            seed: 0xB1A5_1234,
            threshold: 0.05,
            metric: QorMetric::AvgRelative,
            explorer: Explorer::Greedy,
            parallelism: None,
            limits: (10, 10),
            progress: false,
            trace_out: None,
            metrics: false,
            obs: OnceLock::new(),
        }
    }
}

impl FlowOpts {
    /// Try to consume the flag at `args[i]`. Returns the number of
    /// arguments consumed (`None` when the flag is not a flow option).
    pub fn take(&mut self, args: &[String], i: usize) -> Result<Option<usize>, CliError> {
        let flag = args[i].as_str();
        let consumed = match flag {
            "--samples" => {
                self.samples = parse_value(args, i, "sample count")?;
                2
            }
            "--seed" => {
                self.seed = parse_value(args, i, "seed")?;
                2
            }
            "--error-threshold" => {
                self.threshold = parse_value(args, i, "error threshold")?;
                2
            }
            "--metric" => {
                let v = value(args, i)?;
                self.metric = parse_metric(v).ok_or_else(|| {
                    CliError::usage(format!(
                        "unknown metric `{v}` (expected avg-relative, avg-absolute or bit-error-rate)"
                    ))
                })?;
                2
            }
            "--explorer" => {
                let v = value(args, i)?;
                self.explorer = parse_explorer(v).ok_or_else(|| {
                    CliError::usage(format!(
                        "unknown explorer `{v}` (expected greedy, beam:<k> with k >= 1, anneal or pareto3)"
                    ))
                })?;
                2
            }
            "--threads" => {
                // Parallelism::parse maps garbage to Serial — fine for
                // the env var, but an explicit flag must reject typos,
                // and a pool spawns every worker up front, so a count
                // past MAX_THREADS is a typo too.
                let v = value(args, i)?;
                let valid = v.eq_ignore_ascii_case("auto")
                    || v.trim().parse::<usize>().is_ok_and(|n| n <= MAX_THREADS);
                if !valid {
                    return Err(CliError::usage(format!(
                        "invalid --threads `{v}` (expected 0..={MAX_THREADS} or `auto`)"
                    )));
                }
                self.parallelism = Some(Parallelism::parse(v));
                2
            }
            "--limits" => {
                let v = value(args, i)?;
                let (k, m) = v
                    .split_once(['x', 'X'])
                    .and_then(|(k, m)| Some((k.parse().ok()?, m.parse().ok()?)))
                    .filter(|&(k, m): &(usize, usize)| {
                        (1..=16).contains(&k) && (1..=16).contains(&m)
                    })
                    .ok_or_else(|| {
                        CliError::usage(format!("invalid --limits `{v}` (expected KxM, 1..=16)"))
                    })?;
                self.limits = (k, m);
                2
            }
            "--progress" => {
                self.progress = true;
                1
            }
            "--trace-out" => {
                self.trace_out = Some(value(args, i)?.to_string());
                2
            }
            "--metrics" => {
                self.metrics = true;
                1
            }
            _ => return Ok(None),
        };
        Ok(Some(consumed))
    }

    /// The effective worker setting: the `--threads` flag, else the
    /// `BLASYS_THREADS` environment variable, else serial.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism.unwrap_or_else(Parallelism::from_env)
    }

    /// The observability instruments, if `--trace-out` or `--metrics`
    /// was given (built on first use; the panic hook that dumps the
    /// flight recorder is installed once per process).
    pub fn obs(&self) -> Option<&ObsHandles> {
        if self.trace_out.is_none() && !self.metrics {
            return None;
        }
        Some(self.obs.get_or_init(|| {
            let flight = Arc::new(FlightRecorder::new(256));
            static PANIC_HOOK: Once = Once::new();
            PANIC_HOOK.call_once(|| blasys_obs::install_panic_dump(&flight));
            ObsHandles {
                tracer: Arc::new(Tracer::default()),
                registry: Arc::new(Registry::default()),
                flight,
            }
        }))
    }

    /// A named span on the command's tracer (`None` without
    /// `--trace-out`/`--metrics`) — used for command-level root spans
    /// like `run` or `certify`.
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        self.obs().map(|o| o.tracer.span(name))
    }

    /// Emit the end-of-command observability artifacts: the chrome
    /// trace to `--trace-out` and the metrics snapshot (as pretty JSON
    /// on stderr) for `--metrics`.
    pub fn finish(&self) -> Result<(), CliError> {
        let Some(obs) = self.obs() else {
            return Ok(());
        };
        if let Some(path) = &self.trace_out {
            std::fs::write(path, obs.tracer.chrome_json())
                .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote chrome trace to {path} (open in Perfetto or chrome://tracing)");
        }
        if self.metrics {
            let snapshot = obs.registry.snapshot();
            eprint!("{}", blasys_core::report::snapshot_json(&snapshot).pretty());
        }
        Ok(())
    }

    /// Dump the flight recorder to stderr (no-op when observability is
    /// off or nothing was recorded) — called on flow errors so the
    /// last recorded milestones frame the failure.
    pub fn dump_flight(&self) {
        if let Some(obs) = self.obs() {
            let rendered = obs.flight.render();
            if !rendered.is_empty() {
                eprintln!("flight recorder (most recent events):\n{rendered}");
            }
        }
    }

    /// The session configuration these options resolve to, with an
    /// explicit parallelism (used by `batch`, whose per-circuit flows
    /// must run serially inside the corpus pool).
    pub fn flow_config_with(&self, parallelism: Parallelism) -> FlowConfig {
        let mut cfg = FlowConfig::new()
            .samples(self.samples)
            .seed(self.seed)
            .limits(self.limits.0, self.limits.1)
            .parallelism(parallelism);
        let mut observers = Observers::new();
        if self.progress {
            observers = observers.with(Progress::new());
        }
        if let Some(obs) = self.obs() {
            observers = observers
                .with(TraceObserver::new(obs.tracer.clone()).with_flight(obs.flight.clone()));
            cfg = cfg.metrics(obs.registry.clone());
        }
        if !observers.is_empty() {
            cfg = cfg.observer(observers);
        }
        cfg
    }

    /// The session configuration these options resolve to.
    pub fn flow_config(&self) -> FlowConfig {
        self.flow_config_with(self.parallelism())
    }

    /// The per-exploration settings: the driving metric with the
    /// `--error-threshold` stop and the selected `--explorer`.
    pub fn explore_spec(&self) -> ExploreSpec {
        ExploreSpec::new()
            .metric(self.metric)
            .threshold(self.threshold)
            .explorer(self.explorer)
    }

    /// Like [`FlowOpts::explore_spec`] but walking the full trajectory
    /// (`sweep` mode).
    pub fn explore_spec_exhaust(&self) -> ExploreSpec {
        ExploreSpec::new()
            .metric(self.metric)
            .exhaust()
            .explorer(self.explorer)
    }

    /// Open and profile a session for `file`'s netlist — the shared
    /// front half of `run`, `certify`, `profile`, and `sweep`.
    pub fn profiled_session(
        &self,
        file: &str,
        nl: &Netlist,
    ) -> Result<FlowSession<Profiled>, CliError> {
        FlowSession::open(nl, self.flow_config())
            .and_then(FlowSession::profile)
            .map_err(|e| {
                self.dump_flight();
                CliError::flow(file, e)
            })
    }
}

/// The `--progress` observer: streams stage begin/end, per-window
/// profile completion, and every committed trajectory point to
/// stderr, each line prefixed `[+1.234s]` on the shared
/// [`blasys_obs::elapsed`] clock (the same clock the span tracer
/// uses, so progress lines and trace timestamps line up). On drop it
/// prints a per-stage wall-time summary.
pub struct Progress {
    windows_done: AtomicUsize,
    /// Per-stage open timestamp and accumulated total, indexed by
    /// [`stage_index`]. Stage callbacks arrive from the session thread
    /// in order, so the mutex is uncontended.
    stages: Mutex<[(Option<Duration>, Duration); 3]>,
}

fn stage_index(stage: FlowStage) -> usize {
    match stage {
        FlowStage::Decompose => 0,
        FlowStage::Profile => 1,
        FlowStage::Explore => 2,
    }
}

impl Progress {
    /// A fresh observer; timestamps are relative to the process-wide
    /// observability epoch.
    pub fn new() -> Progress {
        Progress {
            windows_done: AtomicUsize::new(0),
            stages: Mutex::new([(None, Duration::ZERO); 3]),
        }
    }

    fn stamp(&self) -> f64 {
        blasys_obs::elapsed().as_secs_f64()
    }
}

impl Default for Progress {
    fn default() -> Progress {
        Progress::new()
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        let stages = self.stages.lock().unwrap();
        let parts: Vec<String> = ["decompose", "profile", "explore"]
            .iter()
            .zip(stages.iter())
            .filter(|(_, (_, total))| !total.is_zero())
            .map(|(name, (_, total))| format!("{name} {:.3}s", total.as_secs_f64()))
            .collect();
        if !parts.is_empty() {
            eprintln!("[+{:.3}s] timing: {}", self.stamp(), parts.join(" | "));
        }
    }
}

impl FlowObserver for Progress {
    fn on_stage_start(&self, stage: FlowStage) {
        self.stages.lock().unwrap()[stage_index(stage)].0 = Some(blasys_obs::elapsed());
        eprintln!("[+{:.3}s] {stage}: start", self.stamp());
    }

    fn on_stage_end(&self, stage: FlowStage) {
        let now = blasys_obs::elapsed();
        let mut stages = self.stages.lock().unwrap();
        let slot = &mut stages[stage_index(stage)];
        if let Some(begun) = slot.0.take() {
            slot.1 += now.saturating_sub(begun);
        }
        drop(stages);
        eprintln!("[+{:.3}s] {stage}: done", self.stamp());
    }

    fn on_window_profiled(&self, profile: &SubcircuitProfile, total_windows: usize) {
        let done = self.windows_done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "[+{:.3}s] profile: window {done}/{total_windows} (cluster {}, {}x{}, {} degrees)",
            self.stamp(),
            profile.cluster,
            profile.num_inputs,
            profile.num_outputs,
            profile.variants.len()
        );
    }

    fn on_trajectory_point(&self, point: &TrajectoryPoint) {
        eprintln!(
            "[+{:.3}s] explore: step {} (cluster {:?}, avg rel err {:.5}, model area {:.1} um^2)",
            self.stamp(),
            point.step,
            point.changed_cluster,
            point.qor.avg_relative,
            point.model_area_um2
        );
    }
}

/// The value of the flag at `args[i]`.
pub fn value(args: &[String], i: usize) -> Result<&str, CliError> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("{} requires a value", args[i])))
}

/// The value of the flag at `args[i]`, parsed.
pub fn parse_value<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    what: &str,
) -> Result<T, CliError> {
    let v = value(args, i)?;
    v.parse()
        .map_err(|_| CliError::usage(format!("invalid {what} `{v}`")))
}

/// Parse a comma-separated `--thresholds` ladder.
pub fn parse_thresholds(v: &str) -> Result<Vec<f64>, CliError> {
    let thresholds: Vec<f64> = v
        .split(',')
        .map(|t| t.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| CliError::usage(format!("invalid --thresholds `{v}`")))?;
    if thresholds.is_empty() {
        return Err(CliError::usage("--thresholds must list at least one value"));
    }
    Ok(thresholds)
}

/// Read, lint-gate and build one BLIF file.
///
/// Admission happens in three layers, matching the exit-code
/// contract: I/O and syntax failures are runtime errors (exit 1);
/// error-level lint findings on the parsed document (cycles, undriven
/// or multiply-driven signals, undefined outputs) become a
/// [`FlowError::InvalidNetlist`]-shaped flow error (exit 2) that names
/// the offending signals; only a clean document is built into a
/// [`Netlist`]. `blasys batch` relies on this as its per-circuit
/// pre-flight: a broken circuit is skipped and reported without
/// aborting the rest of the corpus.
pub fn parse_blif_file(path: &str) -> Result<Netlist, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let doc = parse_blif_doc(&text).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    let diags = run_error_lints(&LintTarget::new().with_doc(&doc), &LintConfig::default());
    if !diags.is_empty() {
        return Err(CliError::flow(path, FlowError::InvalidNetlist(diags)));
    }
    // The document passed the structural lints, so any residue here
    // (duplicate declarations the lints model differently) is still
    // reported as a parse failure rather than a panic.
    doc.build()
        .map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

/// Write `content` to `path`, where `-` means stdout.
pub fn write_output(path: &str, content: &str) -> Result<(), CliError> {
    if path == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(path, content)
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))
    }
}

/// Accept exactly one positional argument (the input path).
pub fn set_positional(slot: &mut Option<String>, arg: &str) -> Result<(), CliError> {
    if arg.starts_with('-') && arg != "-" {
        return Err(CliError::usage(format!("unknown flag `{arg}`")));
    }
    if slot.replace(arg.to_string()).is_some() {
        return Err(CliError::usage(format!(
            "unexpected extra argument `{arg}`"
        )));
    }
    Ok(())
}

/// The positional argument, or a usage error naming what is missing.
pub fn require(slot: Option<String>, what: &str) -> Result<String, CliError> {
    slot.ok_or_else(|| CliError::usage(format!("missing {what}")))
}
