//! The semcommute benchmark: both halves of the system, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <verify-catalog|txn-short|txn-think> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer metrics and tables. The last line of
//! stdout is the JSON result. Any failed correctness check exits non-zero.
//! See `perfbench/README.md` for the workloads and the metric map.

mod inputs;
mod report;
mod stats;
mod trace;
mod txn;
mod verify;

use std::process::ExitCode;

use semcommute::spec::InterfaceId;

use report::{print_result, Outcome};
use txn::Shape;

const USAGE: &str = "usage: perfbench --workload <verify-catalog|txn-short|txn-think> \
                     --seed N --seconds S --trace <0|1>";

/// What every workload is told about its run.
pub struct Config {
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Client threads and verifier workers: the host's parallelism, at
    /// most two.
    pub threads: usize,
    pub host_parallelism: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    VerifyCatalog,
    Txn(Shape),
}

fn parse() -> Result<(Workload, Config, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "verify-catalog" => Workload::VerifyCatalog,
                    "txn-short" => Workload::Txn(Shape::Short),
                    "txn-think" => Workload::Txn(Shape::Think),
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs an unsigned integer, got `{value}`"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds needs a number, got `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        threads: host_parallelism.min(2),
        host_parallelism,
    };
    Ok((
        workload.ok_or("--workload is required")?,
        config,
        traced.ok_or("--trace is required")?,
    ))
}

/// The traced run: every per-layer metric. Each workload measures its own
/// layers; the layers it does not exercise are measured on the inputs
/// nearest to it (see README.md), so every traced run reports every layer.
fn traced(workload: Workload, config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let m = &mut outcome.metrics;
    m.set("host_parallelism", config.host_parallelism as f64);
    m.set("threads", config.threads as f64);
    m.set(
        "client.think_ns_per_iter",
        txn::think_ns_per_iter(config.seed),
    );
    let overhead = match workload {
        Workload::VerifyCatalog => {
            let overhead = verify::layers(&InterfaceId::ALL, config, m)?;
            let (_, attempted, failed) =
                txn::layers(Shape::Think, config, config.seconds / 6.0, m)?;
            outcome.attempted = attempted;
            outcome.failed = failed;
            overhead
        }
        Workload::Txn(shape) => {
            let (overhead, attempted, failed) =
                txn::layers(shape, config, config.seconds / 3.0, m)?;
            verify::layers(&[shape.interface()], config, m)?;
            outcome.attempted = attempted;
            outcome.failed = failed;
            overhead
        }
    };
    outcome.metrics.set("trace.overhead_ratio", overhead);
    Ok(outcome)
}

fn main() -> ExitCode {
    let (workload, config, trace) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {workload:?} seed {} seconds {} trace {}: host_parallelism {}, threads {}",
        config.seed, config.seconds, trace as u8, config.host_parallelism, config.threads
    );
    let outcome = match (workload, trace) {
        (w, true) => traced(w, &config),
        (Workload::VerifyCatalog, false) => verify::run(&config),
        (Workload::Txn(shape), false) => txn::run(shape, &config),
    };
    match outcome.and_then(|o| print_result(&o, trace)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
