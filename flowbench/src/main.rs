//! `flowbench`: end-to-end and per-layer benchmark of the BLASYS flow
//! on the generated Table-1 circuits. See `README.md` in this
//! directory for the workloads, metrics and noise design.
//!
//! ```text
//! flowbench --workload oneshot|explore|certify --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one JSON row per key, then, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`.

mod check;
mod flow;
mod harness;
mod ledger;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use flow::CIRCUITS;
use harness::Run;
use ledger::Ledger;

/// One workload's fixed shape.
struct Workload {
    name: &'static str,
    /// Nominal seconds of one pass, from which `--seconds` sets the
    /// (deterministic) number of passes.
    pass_s: f64,
    /// Set-ups per run, spread between the passes; `setup_s` is their
    /// median.
    setups: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "oneshot",
        pass_s: 6.0,
        setups: 5,
    },
    Workload {
        name: "explore",
        pass_s: 10.0,
        setups: 2,
    },
    Workload {
        name: "certify",
        pass_s: 3.0,
        setups: 2,
    },
];

/// Every key repeats at least this often, so each has a median and a
/// 90th percentile.
const MIN_PASSES: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(name.to_string(), value.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?} (oneshot, explore, certify)"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace,
    })
}

/// Measure the workload. A traced invocation runs it twice at
/// `MIN_PASSES` (untraced, then traced, to report the overhead), since
/// its per-layer figures carry no bound; an untraced one sizes the
/// pass count from `--seconds`.
fn measure(args: &Args, ledger: Option<&Ledger>) -> Result<Run, String> {
    let w = args.workload;
    let passes = if args.trace {
        MIN_PASSES
    } else {
        ((args.seconds as f64 / w.pass_s).round() as usize).max(MIN_PASSES)
    };
    match w.name {
        "oneshot" => flow::oneshot(args.seed, passes, w.setups, ledger),
        "explore" => flow::explore_workload(args.seed, passes, w.setups, ledger),
        _ => flow::certify_workload(args.seed, passes, w.setups, ledger),
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where traces and the fingerprint ledger go: `out/` beside this
/// package's manifest, inside the checkout being measured.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// FNV-1a of this executable: two runs share fingerprints only when
/// they run the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Compare this run's per-key fingerprints with those recorded by
/// earlier runs of the same build, workload and seed, and record the
/// new ones. Returns one message per mismatch.
fn check_fingerprint_history(args: &Args, rows: &[harness::KeyRow]) -> Vec<String> {
    let path = out_dir().join("fingerprints.tsv");
    let prefix = format!("{}\t{}\t{}\t", build_id(), args.workload.name, args.seed);
    let history = std::fs::read_to_string(&path).unwrap_or_default();
    let known: BTreeMap<&str, &str> = history
        .lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .filter_map(|l| l.split_once('\t'))
        .collect();
    let mut errors = Vec::new();
    let mut new = String::new();
    for row in rows {
        let Some(fp) = &row.fingerprint else { continue };
        match known.get(row.key.as_str()) {
            Some(old) if old != fp => errors.push(format!(
                "{}: fingerprint differs from an earlier run of this build: {old} then {fp}",
                row.key
            )),
            Some(_) => {}
            None => {
                let _ = writeln!(new, "{prefix}{}\t{fp}", row.key);
            }
        }
    }
    if !new.is_empty() {
        let written = std::fs::create_dir_all(out_dir()).and_then(|_| {
            use std::io::Write as _;
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?
                .write_all(new.as_bytes())
        });
        if let Err(e) = written {
            eprintln!(
                "flowbench: cannot record fingerprints in {}: {e}",
                path.display()
            );
        }
    }
    errors
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a non-finite value (which only a failed run can
/// produce) prints as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_rows(workload: &str, traced: bool, run: &Run) {
    for row in &run.rows {
        println!(
            "{{\"row\":{},\"workload\":{},\"traced\":{traced},\"median_s\":{},\"p90_s\":{},\"walls_s\":[{}],\"fingerprint\":{}}}",
            json_str(&row.key),
            json_str(workload),
            json_num(row.median_s().unwrap_or(f64::NAN)),
            json_num(row.p90_s().unwrap_or(f64::NAN)),
            row.walls.iter().map(|w| json_num(*w)).collect::<Vec<_>>().join(","),
            json_str(row.fingerprint.as_deref().unwrap_or("")),
        );
    }
}

/// Errors of one measured run, fingerprint changes included.
fn run_errors(run: &Run) -> Vec<String> {
    let mut errors = run.errors.clone();
    for row in &run.rows {
        if row.walls.is_empty() {
            errors.push(format!("{}: no repeat succeeded", row.key));
        }
    }
    errors
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}\nusage: flowbench --workload oneshot|explore|certify --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name;
    let untraced = match measure(&args, None) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("flowbench: {name} set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_rows(name, false, &untraced);
    let mut errors = run_errors(&untraced);
    errors.extend(check_fingerprint_history(&args, &untraced.rows));
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();

    if args.trace {
        let ledger = Ledger::default();
        let traced = match measure(&args, Some(&ledger)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("flowbench: traced {name} set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_rows(name, true, &traced);
        errors.extend(run_errors(&traced));
        for (a, b) in untraced.rows.iter().zip(&traced.rows) {
            if a.fingerprint != b.fingerprint {
                errors.push(format!(
                    "{}: traced fingerprint differs from untraced",
                    a.key
                ));
            }
        }
        attempted += traced.attempted;
        failed += traced.failed;
        for lm in ledger.metrics(&CIRCUITS) {
            println!(
                "{{\"ledger\":{},\"value\":{},\"unit\":{},\"moves\":{}}}",
                json_str(&lm.name),
                json_num(lm.value),
                json_str(lm.unit),
                json_str(lm.moves)
            );
            metrics.push((lm.name, lm.value, lm.unit));
        }
        let overhead = traced.op_p90_s() / untraced.op_p90_s();
        println!(
            "{{\"ledger\":\"trace.op_p90_s_ratio\",\"value\":{},\"unit\":\"ratio\",\"moves\":\"tracing overhead: traced / untraced {name} op_p90_s\"}}",
            json_num(overhead)
        );
        metrics.push(("trace.op_p90_s_ratio".into(), overhead, "ratio"));
        let trace_path = out_dir().join(format!("trace-{name}-{}.json", args.seed));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&trace_path, ledger.tracer.chrome_json()));
        match written {
            Ok(()) => eprintln!("flowbench: chrome trace in {}", trace_path.display()),
            Err(e) => eprintln!("flowbench: cannot write {}: {e}", trace_path.display()),
        }
    } else {
        let run = &untraced;
        let [area, power, delay] = run.mean_savings().unwrap_or([f64::NAN; 3]);
        let samples = run.rows.iter().map(|r| r.walls.len()).sum::<usize>();
        eprintln!(
            "flowbench: {name} op_p90_s={:.4} s over {} keys x {} repeats ({samples} samples)",
            run.op_p90_s(),
            run.rows.len(),
            samples / run.rows.len().max(1)
        );
        metrics.extend([
            ("setup_s".to_string(), run.setup_s, "s"),
            ("op_p90_s".into(), run.op_p90_s(), "s"),
            ("run_p90_s".into(), run.run_p90_s(), "s"),
            ("ok_frac".into(), run.ok_frac(), "frac"),
            ("area_saved_pct".into(), area, "%"),
            ("power_saved_pct".into(), power, "%"),
            ("delay_saved_pct".into(), delay, "%"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ]);
    }

    for e in &errors {
        eprintln!("flowbench: FAILED {e}");
    }
    let correct = errors.is_empty() && failed == 0 && metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    ExitCode::SUCCESS
}
