//! Seeded benchmark of the darksil workspace.
//!
//! ```text
//! darksil-perfbench --workload transient|serve --seed N --seconds S
//!                   --trace 0|1 --darksil PATH
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics
//! for `S` seconds. With `--trace 1` it runs the per-layer probes and a
//! fixed traced pass of the workload instead. Either way the last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `perfbench/run.sh` builds everything from source and calls this.

#[cfg(test)]
mod counts;
mod gen;
mod probes;
mod serve;
mod stats;
mod transient;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Worker threads and client connections: the benchmark never uses
/// more than this, matching the two-core machine it was sized on.
pub const MAX_PARALLEL: usize = 2;

/// The worker count a run uses: [`MAX_PARALLEL`], or fewer on a
/// smaller machine.
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_PARALLEL)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The end-to-end metric (and workload) this number should move;
    /// printed next to per-layer metrics in the traced run.
    pub moves: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            moves: "",
        }
    }

    pub fn moves(mut self, target: &'static str) -> Self {
        self.moves = target;
        self
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one checked operation; `problem` is `Some` when it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            if self.failed < 5 {
                eprintln!("perfbench: failed operation: {problem}");
            }
            self.failed += 1;
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub darksil: PathBuf,
    /// Scratch space for caches, journals and daemon state; inside the
    /// checkout the benchmark runs from.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut darksil = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => trace = value()? == "1",
            "--darksil" => darksil = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        darksil: darksil.ok_or("--darksil is required")?,
        work: PathBuf::from(".bench_work"),
    })
}

/// A fresh, empty directory under the run's scratch space.
pub fn fresh_dir(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if !args.darksil.is_file() {
        eprintln!("perfbench: no daemon binary at {}", args.darksil.display());
        return ExitCode::from(2);
    }
    let run = match (args.workload.as_str(), args.trace) {
        ("transient", false) => transient::measure(&args),
        ("transient", true) => transient::traced(&args),
        ("serve", false) => serve::measure(&args),
        ("serve", true) => serve::traced(&args),
        (other, _) => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let mut outcome = match run {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        match probes::run(&args) {
            Ok(layers) => outcome.metrics.extend(layers),
            Err(message) => {
                eprintln!("perfbench: layer probes failed: {message}");
                return ExitCode::from(1);
            }
        }
        let _ = std::fs::remove_dir_all(&args.work);
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", m.name);
        return ExitCode::from(1);
    }
    println!(
        "# workload {} seed {} ({} thread(s)): {} attempted, {} failed ({:.2} % failure share), checks {}",
        args.workload,
        args.seed,
        jobs(),
        outcome.attempted,
        outcome.failed,
        stats::share(outcome.failed, outcome.attempted) * 100.0,
        if outcome.correct { "passed" } else { "FAILED" },
    );
    for m in &outcome.metrics {
        if m.moves.is_empty() {
            println!("{:<44} {:>14.6} {}", m.name, m.value, m.unit);
        } else {
            println!(
                "{:<44} {:>14.6} {:<6} -> {}",
                m.name, m.value, m.unit, m.moves
            );
        }
    }
    println!("{}", json_line(&outcome));
    ExitCode::SUCCESS
}
