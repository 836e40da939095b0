//! `blasys` — the end-to-end command-line driver of the BLASYS
//! reproduction: BLIF in, approximated BLIF / structural Verilog and a
//! JSON QoR report out.
//!
//! Subcommands:
//!
//! * [`run`] — the full decompose → profile → explore → synthesize
//!   flow on one circuit, with BLIF / Verilog netlist output and a
//!   JSON report;
//! * [`certify`] — `run` plus a SAT-certified exact worst-case error
//!   bound (with witness) for the chosen design;
//! * [`profile`] — per-window BMF profile dump (every factorization
//!   degree of every cluster);
//! * [`sweep`] — Pareto sweep across an error-threshold ladder,
//!   CSV or JSON out;
//! * [`batch`] — run a whole directory of BLIF circuits across the
//!   `blasys-par` thread pool with an aggregate summary table;
//! * [`serve`] — long-running HTTP service: circuits are profiled
//!   once into a content-addressed session cache, then explored any
//!   number of times;
//! * [`lint`] — static analysis of one BLIF circuit: structural
//!   defects, liveness, constant tables, redundant cones;
//! * [`export`] (`export-benchmarks`) — regenerate the shipped
//!   `benchmarks/` corpus from the `blasys-circuits` generators.
//!
//! Exit codes: `0` success, `1` runtime failure (unreadable or
//! malformed input, I/O error), `2` usage error or an input circuit
//! the flow cannot drive (printed as the
//! [`FlowError`](blasys_core::FlowError) display text; `lint` exits 2
//! when error-level findings exist), `3` warning-level lint findings
//! under `lint --deny warnings`.

use std::process::ExitCode;

mod batch;
mod certify;
mod export;
mod lint;
mod opts;
mod profile;
mod run;
mod serve;
mod sweep;

use opts::CliError;

const USAGE: &str = "blasys — approximate logic synthesis via Boolean matrix factorization

USAGE:
    blasys <COMMAND> [ARGS]

COMMANDS:
    run <FILE.blif>       Approximate one circuit; emit netlists + JSON report
    certify <FILE.blif>   run + SAT-certified exact worst-case error bound
    profile <FILE.blif>   Dump the per-window BMF factorization profile
    sweep <FILE.blif>     Pareto sweep over an error-threshold ladder
    batch <DIR>           Run every .blif in DIR on the thread pool
    serve                 HTTP service: POST circuits once, explore many times
                          from a content-addressed session cache
    lint <FILE.blif>      Static netlist analysis (exit 2 on errors; 3 on
                          warnings with --deny warnings)
    export-benchmarks [DIR]  Write the built-in benchmark corpus (default: benchmarks)
    help                  Show this message

FLOW OPTIONS (run / certify / profile / sweep / batch):
    --error-threshold <T>   Stop threshold for the driving metric [default: 0.05]
    --metric <M>            avg-relative | avg-absolute | bit-error-rate [default: avg-relative]
    --explorer <E>          Search engine: greedy | beam:<k> | anneal | pareto3
                            (beam alone means beam:4; pareto3 makes sweep --format
                            json emit the 3-D error/area/depth surface) [default: greedy]
    --samples <N>           Monte-Carlo samples, rounded up to a multiple of 64;
                            reports carry the rounded count [default: 10000]
    --seed <S>              Stimulus RNG seed [default: 2980385332]
    --limits <KxM>          Decomposition window limits [default: 10x10]
    --threads <N>           Worker threads: N <= 1024, 0 or `auto` (batch defaults to auto,
                            everything else to $BLASYS_THREADS or serial)
    --progress              Stream stage / window / trajectory progress to stderr
    --trace-out <PATH>      Write a chrome://tracing JSON trace of the whole
                            command (open in Perfetto or chrome://tracing)
    --metrics               Collect flow/engine/pool counters; print the
                            snapshot as JSON on stderr (run and certify also
                            embed it in the report under \"metrics\")

OUTPUT OPTIONS:
    run:      --blif <PATH>  --verilog <PATH>  --report <PATH|-> [default: -]
    certify:  --report <PATH|-> [default: -]
    profile:  --json  --out <PATH|-> [default: -]
    sweep:    --thresholds <T1,T2,..> [default: 0.01,0.02,0.05,0.1,0.25]
              --format <csv|json> [default: csv]  --out <PATH|-> [default: -]
    batch:    --thresholds <T1,T2,..> explore each circuit's cached profile
              once per rung (adds a threshold column)
    lint:     --format <text|json> [default: text]  --deny warnings
              --out <PATH|-> [default: -]
    serve:    --addr <HOST:PORT> [default: 127.0.0.1:8080; port 0 = ephemeral]
              --cache-size <N> [default: 8]  --max-inflight <N> [default: 4]
              --max-body-kb <N> [default: 4096]  --read-timeout-ms <N> [default: 5000]
              --profile-wall-ms <N>  --explore-wall-ms <N>
              (flow options select the cached sessions' profile settings;
              --metrics prints the snapshot after graceful shutdown)

EXAMPLES:
    blasys run benchmarks/adder8.blif --error-threshold 0.05 \\
        --verilog approx.v --report report.json
    blasys certify benchmarks/mult3.blif --error-threshold 0.1
    blasys sweep benchmarks/mult4.blif --format csv --progress
    blasys run benchmarks/mult4.blif --trace-out trace.json --metrics
    blasys batch benchmarks/ --threads auto --thresholds 0.02,0.05,0.1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "run" => run::main(rest),
        "certify" => certify::main(rest),
        "profile" => profile::main(rest),
        "sweep" => sweep::main(rest),
        "batch" => batch::main(rest),
        "serve" => serve::main(rest),
        "lint" => lint::main(rest),
        "export-benchmarks" => export::main(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Flow(msg)) => {
            // The circuit cannot be driven through the flow as given —
            // an input problem, not a runtime failure.
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::DeniedWarnings(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
    }
}
