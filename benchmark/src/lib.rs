//! The repository benchmark (see `BENCHMARK.json` and `README.md` in
//! this directory).
//!
//! ```text
//! xstream-e2e-bench --workload <batch-mem|batch-disk|serve-disk>
//!                   --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Generates the workload's inputs from the seed under `.bench_work/`
//! in the current directory, measures for about `--seconds` seconds,
//! checks every answer against an independent oracle and prints one
//! JSON result line last on stdout: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). Exits
//! nonzero when an answer is wrong or the run fails.

pub mod batch;
pub mod bounds;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod serve;
pub mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Metrics, END_TO_END, PER_LAYER};

pub const WORKLOADS: [&str; 3] = ["batch-mem", "batch-disk", "serve-disk"];

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs (RMAT-10, a few dozen queries) for the benchmark's
    /// own tests.
    pub smoke: bool,
    /// Scratch directory for this run's inputs and stores.
    pub work: PathBuf,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join("|"))),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 120.0)
                        .ok_or_else(|| bad("seconds in (0, 120]"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        smoke,
        work,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one benchmark invocation from the command-line arguments.
pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]\n{e}",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("creating {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let work = WorkDir(args.work.clone());
    let result = match args.workload.as_str() {
        "batch-mem" => batch::run(batch::Kind::Mem, &args),
        "batch-disk" => batch::run(batch::Kind::Disk, &args),
        _ => serve::run(&args),
    };
    drop(work);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.metrics.set("peak_rss_mb", metrics::peak_rss_mb());
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = out.failed == 0;
    eprintln!(
        "attempted {}, failed {} (failed_frac {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    metrics::print_table(&format!("{kind} metrics:"), &out.metrics, specs);
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, &out.metrics, specs)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
