//! End-to-end and per-layer benchmark of the DRT engine and the threaded
//! server, on SegFormer-B0 (ADE20K LUT, GPU-time resource, plan replay).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <drt-trace|serve-poisson|serve-burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (from probes and a separate traced run). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is 0 only when every output checked out.

mod cpu;
mod drt_trace;
mod layers;
mod refclock;
mod report;
mod serve;
mod setup;

use std::process::ExitCode;
use std::time::Instant;

/// How this run was invoked.
pub struct Mode {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start: set-up is timed from here.
    pub start: Instant,
}

/// A finished run: its metrics and its operation counts.
pub struct Outcome {
    pub report: report::Report,
    pub attempted: usize,
    pub failed: usize,
}

enum Workload {
    DrtTrace,
    Serve(serve::Spec),
}

/// The workload definitions. The serving rates keep one worker at most a
/// third busy, well below the knee where goodput starts to swing; the
/// pinned full-path time is slower than any full path measured on the
/// benchmark's reference machine (see `METRICS.md`).
fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "drt-trace" => Workload::DrtTrace,
        "serve-poisson" => Workload::Serve(serve::Spec {
            pinned_full_ms: 120.0,
            arrivals: serve::Arrivals::Poisson { rate: 6.0 },
            deadline_x: &[0.95, 2.0, 4.0],
        }),
        "serve-burst" => Workload::Serve(serve::Spec {
            pinned_full_ms: 120.0,
            arrivals: serve::Arrivals::Burst {
                base_rate: 1.0,
                size: 6,
                every_s: 1.0,
            },
            deadline_x: &[10.0],
        }),
        _ => return None,
    })
}

fn parse_args() -> Result<(Workload, Mode), String> {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let w = workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok((
        w,
        Mode {
            seed,
            seconds,
            trace,
            start,
        },
    ))
}

fn main() -> ExitCode {
    let (w, mode) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <drt-trace|serve-poisson|serve-burst> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = match &w {
        Workload::DrtTrace => drt_trace::run(&mode),
        Workload::Serve(spec) => serve::run(spec, &mode),
    };
    let correct = out.failed == 0;
    out.report.print(correct, out.attempted, out.failed);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
