//! `smrp-perfbench`: the end-to-end and per-layer benchmark of the SMRP
//! workspace.
//!
//! ```text
//! smrp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Workloads: `campaign-mix`, `hierarchy-audit`, `churn-4k`, `scale-40k`
//! (see `perfbench/README.md`). The seed is the only source of the
//! workload's inputs. Human-readable lines start with `#`; the last line
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. The process exits with code 1 when a correctness check
//! fails and with code 2 on bad arguments.

mod bench;
mod span;
mod stats;
mod workloads;

use std::process::ExitCode;

use bench::{run_traced, run_untraced, Outcome, Workload};
use workloads::{campaign, churn, hierarchy, scale};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn run<W: Workload>(w: &W, args: &Args) -> Outcome {
    if args.trace {
        run_traced(w, args.seconds, args.spans.as_deref())
    } else {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        run_untraced(w, args.seconds, cores)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smrp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "campaign-mix" => run(&campaign::CampaignMix::new(args.seed), &args),
        "hierarchy-audit" => run(&hierarchy::HierarchyAudit::new(args.seed), &args),
        "churn-4k" => run(&churn::Churn4k::new(args.seed), &args),
        "scale-40k" => run(&scale::Scale40k::new(args.seed), &args),
        other => {
            eprintln!("smrp-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for p in &outcome.problems {
        println!("# CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!("{}", outcome.metrics.result_json(correct, outcome.tally));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
