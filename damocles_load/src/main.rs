//! `damocles_load` — open-loop TCP load benchmark for `damocles_server`.
//!
//! ```console
//! $ damocles_load --workload tracking_storm --seed 1 --seconds 10 --trace 0
//! $ damocles_load --workload mixed_follower --seed 1 --seconds 10 --trace 1 --trace-out t.jsonl
//! $ damocles_load --smoke
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the
//! gated end-to-end metrics, or with `--trace 1` the demoted end-to-end
//! metrics and the per-layer metrics of a traced run. Human-readable lines go to standard error. `--smoke` runs
//! every workload (or the one named) for about a second at 1/20 of the
//! saturation count, with the same checks, and prints one result line
//! per workload.
//!
//! The server binary is looked up next to this executable
//! (`target/<profile>/damocles_server`); `--server <path>` overrides it.

use std::path::PathBuf;
use std::process::ExitCode;

use damocles_load::run::{run, Options};
use damocles_load::workload::Workload;

const USAGE: &str = "usage: damocles_load (--workload <name> | --smoke) [--seed <n>] \
                     [--seconds <s>] [--trace <0|1>] [--trace-out <file>] \
                     [--server <path>] [--workdir <dir>]\n\
                     workloads: checkin_storm tracking_storm mixed_follower fleet_churn";

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok((workloads, opts)) => execute(&workloads, &opts),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Vec<Workload>, Options), String> {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_default();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut server = exe_dir.join("damocles_server");
    let mut workdir = exe_dir.join("damocles_load-work");
    let mut smoke = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                );
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--server" => server = PathBuf::from(value()?),
            "--workdir" => workdir = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workloads = match (workload, smoke) {
        (Some(w), _) => vec![w],
        (None, true) => Workload::ALL.to_vec(),
        (None, false) => return Err("--workload is required".into()),
    };
    let seconds = seconds.unwrap_or(if smoke { 1.0 } else { 10.0 });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if !server.is_file() {
        return Err(format!(
            "no server binary at {}; build it into the same target directory first, \
             e.g. `cargo build --release --bin damocles_server` from the repository root \
             with the same CARGO_TARGET_DIR, or pass --server <path>",
            server.display()
        ));
    }
    let trace_out = trace_out.unwrap_or_else(|| workdir.join("trace.jsonl"));
    let opts = Options {
        workload: workloads[0],
        seed,
        seconds,
        trace,
        trace_out,
        server,
        workdir,
        smoke,
    };
    Ok((workloads, opts))
}

fn execute(workloads: &[Workload], opts: &Options) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&opts.workdir) {
        eprintln!("error: {}: {e}", opts.workdir.display());
        return ExitCode::FAILURE;
    }
    let mut all_correct = true;
    for &workload in workloads {
        let opts = Options {
            workload,
            ..opts.clone()
        };
        match run(&opts) {
            Ok(outcome) => {
                for m in &outcome.metrics {
                    eprintln!(
                        "{}: {} = {:.4} {}",
                        workload.name(),
                        m.name,
                        m.value,
                        m.unit
                    );
                }
                for p in &outcome.problems {
                    eprintln!("{}: check failed: {p}", workload.name());
                }
                all_correct &= outcome.correct;
                println!("{}", outcome.json());
            }
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.smoke && !all_correct {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
