//! The ropuf benchmark: one command per workload.
//!
//! ```text
//! ropuf-benchmark --workload <auth-steady|auth-admin|attack-campaign>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs print the end-to-end metrics; traced runs
//! (`--trace 1`) repeat the measurement with client spans and in-process
//! layer replays and print the per-layer table. The last stdout line is
//! the result object; the line before it carries the host fingerprint,
//! topology and gates. A failed correctness gate exits with code 1.
//! See `README.md` next to this crate.

mod affinity;
mod auth;
mod campaign;
mod config;
mod host;
mod layers;
mod openloop;
mod report;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A fresh directory for this run's files, under `.bench_tmp/` in the
/// working directory.
pub fn scratch_dir(name: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_tmp").join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Counted before any thread is pinned: the standard library's count
    // follows the calling thread's affinity.
    config::nproc();
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    let ticks = host::cpu_ticks();
    let outcome = match args.workload.as_str() {
        "auth-steady" => auth::run(auth::Kind::Steady, &args, &mut report),
        "auth-admin" => auth::run(auth::Kind::Admin, &args, &mut report),
        "attack-campaign" => campaign::run(&args, &mut report),
        other => Err(std::io::Error::other(format!("unknown workload {other}"))),
    };
    let (steal, total) = host::cpu_ticks();
    report.note(
        "host_steal_pct",
        format!(
            "{:.1}",
            100.0 * steal.saturating_sub(ticks.0) as f64
                / total.saturating_sub(ticks.1).max(1) as f64
        ),
    );
    // Removes the scratch root only when every run's files are gone.
    let _ = std::fs::remove_dir(".bench_tmp");
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if report.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
