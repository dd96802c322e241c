//! Correlated fault-injection campaigns (the `smrp-faultlab` subsystem).
//!
//! Evaluates thousands of seeded correlated-failure scenarios against both
//! SMRP (local detour) and the SPF baseline (global detour), audits every
//! recovery against the protocol's safety invariants, and writes a stable
//! JSON campaign report. Exits non-zero if any invariant is violated, so
//! CI can gate on it.
//!
//! Usage:
//! `cargo run -p smrp-experiments --release --bin faultlab -- [options]`
//!
//! * `--smoke` — small CI campaign (n=100, 240 scenarios);
//! * `--smoke-lossy` — small CI campaign under 5% ambient control-plane
//!   loss (n=100, 203 scenarios — a multiple of the 7 fault families);
//! * `--smoke-multi` — small CI campaign with 8 concurrent sessions
//!   sharing the topology (n=60, 28 scenarios);
//! * `--bench` — acceptance benchmark: runs the configured campaign twice
//!   (lossless, then under `--loss` ambient loss, default 10%), plus the
//!   protection-vs-restoration sweep, and writes one artifact with all
//!   reports, the per-protocol restoration-latency inflation factor and
//!   the per-loss-point protection-vs-reactive medians (this is how
//!   `BENCH_faultlab.json` is produced);
//! * `--protect` — the protection-vs-restoration axis on its own: SMRP
//!   with precomputed backup detours against SMRP with on-demand search,
//!   swept over single-link, single-node and shared-risk-group failures
//!   at each ambient-loss point. Exits non-zero unless the sweep is
//!   healthy *and* activation strictly beats search at every loss point;
//! * `--protect-smoke` — small CI protection sweep (n=18, 36 cases),
//!   byte-identical for any `--jobs`;
//! * `--search-ms X` — modelled on-demand detour-search delay charged to
//!   the reactive arm of a protection sweep (default 25);
//! * `--bench-multi` — multi-session benchmark sweep: the campaign at
//!   M ∈ {1, 8, 32} concurrent sessions, each at 0% and at `--loss`
//!   (default 10%) ambient loss, writing one artifact with aggregate
//!   restoration latency and per-group control-message overhead per
//!   cell (this is how `BENCH_multisession.json` is produced). Presets
//!   70 scenarios of 12-member sessions on the default 400-node
//!   topology — a 32-session case simulates 32 trees in one event
//!   queue, so the sweep trades scenario count for session count;
//!   later flags override the preset;
//! * `--hierarchy` — wire-level N-level recovery-domain campaign: every
//!   active domain's session runs as one group over the shared topology,
//!   repairs stay confined to the owning domain, and the full message
//!   trace of every case is audited against the DomainLocality invariant.
//!   Exits non-zero unless the campaign is clean (zero border crossings,
//!   full audit coverage, every member restored);
//! * `--levels N` — depth of the `--hierarchy` domain tree (default 3,
//!   minimum 2 — the paper's transit-stub shape);
//! * `--population N` — aggregated receivers spread over the hierarchy's
//!   leaf domains, weighted into `SHR/N` per Eq. 2 (default 10000);
//! * `--dump-trace DIR` — instead of a campaign, emit the golden scripted
//!   scenario files (`figure1`, `shared_fate_srlg`, `figure1_lossy`) into
//!   DIR: self-contained JSON traces with the sim's converged outcome and
//!   its digest embedded, replayable through the `smrpd` daemon and handy
//!   standalone as minimal reproducers. Byte-identical for any `--jobs`;
//! * `--loss P` — ambient control-plane loss probability applied to every
//!   case that doesn't carry its own degraded channel (default 0);
//! * `--scenarios N` — number of fault cases (default 1000);
//! * `--nodes N` — topology size (default 400);
//! * `--group N` — multicast group size (default 30);
//! * `--groups M` — concurrent multicast sessions over one topology
//!   (default 1); every fault case is injected once against all of them;
//! * `--seed S` — base seed (default 0x5EED);
//! * `--jobs N` — worker threads, at least 1 (default: available
//!   parallelism);
//! * `--out PATH` — report path (default `results/faultlab.json`).
//!
//! The report depends only on the configuration — never on `--jobs`, the
//! machine, or wall-clock — so identical seeds yield byte-identical files.
//! The exit code gates on *health*, not just invariants: any invariant
//! violation or any retry-budget exhaustion outside gray-link cases fails
//! the run.

use std::process::ExitCode;

use serde::Serialize;
use smrp_experiments::results_dir;
use smrp_faultlab::{
    run_campaign, run_hierarchy, run_protect, CampaignConfig, CampaignReport, HierarchyConfig,
    HierarchyReport, ProtectConfig, ProtectReport, ProtoKind,
};

struct Args {
    config: CampaignConfig,
    protect_config: ProtectConfig,
    hierarchy_config: HierarchyConfig,
    jobs: usize,
    bench: bool,
    bench_multi: bool,
    protect: bool,
    hierarchy: bool,
    dump_trace: Option<std::path::PathBuf>,
    out: std::path::PathBuf,
}

/// One protocol's restoration-latency inflation under ambient loss.
#[derive(Serialize)]
struct Inflation {
    proto: ProtoKind,
    lossless_mean_ms: f64,
    lossy_mean_ms: f64,
    factor: f64,
}

/// The `--bench` artifact: the same campaign lossless and lossy, plus the
/// latency inflation the ambient loss costs each protocol, plus the
/// protection-vs-restoration sweep (precomputed activation against
/// on-demand search over the same seeds).
#[derive(Serialize)]
struct BenchReport {
    ambient_loss: f64,
    latency_inflation: Vec<Inflation>,
    lossless: CampaignReport,
    lossy: CampaignReport,
    protection: ProtectReport,
}

fn inflation(lossless: &CampaignReport, lossy: &CampaignReport) -> Vec<Inflation> {
    let mean = |r: &CampaignReport, proto: ProtoKind| {
        r.latencies
            .iter()
            .find(|l| l.proto == proto)
            .map(|l| l.mean_ms)
    };
    [ProtoKind::Smrp, ProtoKind::Spf]
        .into_iter()
        .filter_map(|proto| {
            let (a, b) = (mean(lossless, proto)?, mean(lossy, proto)?);
            Some(Inflation {
                proto,
                lossless_mean_ms: a,
                lossy_mean_ms: b,
                factor: if a > 0.0 { b / a } else { f64::NAN },
            })
        })
        .collect()
}

/// One (session count, ambient loss) cell of the `--bench-multi` sweep,
/// with the headline numbers lifted out of the full report.
#[derive(Serialize)]
struct MultiCell {
    groups: usize,
    ambient_loss: f64,
    /// Aggregate SMRP restoration-latency distribution across all groups.
    smrp_mean_latency_ms: f64,
    smrp_p95_latency_ms: f64,
    smrp_restored_members: u64,
    /// Mean control messages one group's SMRP lanes spend over the whole
    /// campaign — the per-group overhead of sharing the substrate.
    smrp_control_messages_per_group: f64,
    total_violations: u32,
    report: CampaignReport,
}

/// The `--bench-multi` artifact: the same campaign swept over session
/// counts and ambient-loss levels.
#[derive(Serialize)]
struct MultiBenchReport {
    group_counts: Vec<usize>,
    loss_levels: Vec<f64>,
    cells: Vec<MultiCell>,
}

fn multi_cell(groups: usize, ambient_loss: f64, report: CampaignReport) -> MultiCell {
    let smrp = report
        .latencies
        .iter()
        .find(|l| l.proto == ProtoKind::Smrp)
        .expect("smrp latency row exists");
    let smrp_groups: Vec<_> = report
        .group_summaries
        .iter()
        .filter(|g| g.proto == ProtoKind::Smrp)
        .collect();
    let per_group = smrp_groups.iter().map(|g| g.control_messages).sum::<u64>() as f64
        / smrp_groups.len().max(1) as f64;
    MultiCell {
        groups,
        ambient_loss,
        smrp_mean_latency_ms: smrp.mean_ms,
        smrp_p95_latency_ms: smrp.p95_ms,
        smrp_restored_members: smrp.count,
        smrp_control_messages_per_group: per_group,
        total_violations: report.total_violations,
        report,
    }
}

/// The `--bench-multi` path: sweep M ∈ {1, 8, 32} sessions, each at 0%
/// and at the configured ambient loss.
fn run_bench_multi(args: &Args) -> ExitCode {
    let ambient_loss = if args.config.ambient_loss > 0.0 {
        args.config.ambient_loss
    } else {
        0.1
    };
    let group_counts = vec![1usize, 8, 32];
    let loss_levels = vec![0.0, ambient_loss];
    let mut cells = Vec::new();
    let mut healthy = true;
    for &groups in &group_counts {
        for &loss in &loss_levels {
            let config = CampaignConfig {
                groups,
                ambient_loss: loss,
                ..args.config.clone()
            };
            let started = std::time::Instant::now();
            let run = match run_campaign(&config, args.jobs) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("faultlab: campaign failed: {e}");
                    return ExitCode::from(2);
                }
            };
            let report = CampaignReport::from_run(&run);
            println!("=== M={groups} sessions, ambient loss {loss} ===");
            print!("{}", report.synopsis());
            println!(
                "  ({:.2}s on {} jobs)",
                started.elapsed().as_secs_f64(),
                args.jobs
            );
            if !report.is_healthy() {
                report_failures(&report, &args.out);
                healthy = false;
            }
            cells.push(multi_cell(groups, loss, report));
        }
    }
    for c in &cells {
        println!(
            "cell M={:<2} loss={}: smrp mean={:.2}ms p95={:.2}ms control-msgs/group={:.0}",
            c.groups,
            c.ambient_loss,
            c.smrp_mean_latency_ms,
            c.smrp_p95_latency_ms,
            c.smrp_control_messages_per_group,
        );
    }
    let bench = MultiBenchReport {
        group_counts,
        loss_levels,
        cells,
    };
    let json = serde_json::to_string_pretty(&bench).expect("multi bench report serializes");
    if let Err(code) = write_out(&args.out, json) {
        return code;
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args() -> Result<Args, String> {
    let mut config = CampaignConfig {
        nodes: 400,
        group_size: 30,
        scenarios: 1000,
        ..CampaignConfig::default()
    };
    let mut protect_config = ProtectConfig::default();
    let mut hierarchy_config = HierarchyConfig::default();
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut bench = false;
    let mut bench_multi = false;
    let mut protect = false;
    let mut hierarchy = false;
    let mut dump_trace: Option<std::path::PathBuf> = None;
    let mut out: Option<std::path::PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--smoke" => {
                config.nodes = 100;
                config.scenarios = 240;
            }
            "--smoke-lossy" => {
                config.nodes = 100;
                config.scenarios = 203;
                config.ambient_loss = 0.05;
            }
            "--smoke-multi" => {
                config.nodes = 60;
                config.group_size = 10;
                config.scenarios = 28;
                config.groups = 8;
            }
            "--bench" => {
                bench = true;
            }
            "--protect" => {
                protect = true;
            }
            "--hierarchy" => {
                hierarchy = true;
            }
            "--levels" => {
                hierarchy_config.levels = value("--levels")?
                    .parse()
                    .map_err(|e| format!("--levels: {e}"))?;
                if hierarchy_config.levels < 2 {
                    return Err("--levels expects a depth of at least 2".into());
                }
            }
            "--population" => {
                hierarchy_config.population = value("--population")?
                    .parse()
                    .map_err(|e| format!("--population: {e}"))?;
            }
            "--protect-smoke" => {
                protect = true;
                protect_config.nodes = 18;
                protect_config.group_size = 10;
                protect_config.scenarios_per_cell = 6;
                protect_config.base_seed = 11;
                protect_config.run_until_ms = 2000.0;
            }
            "--search-ms" => {
                protect_config.search_ms = value("--search-ms")?
                    .parse()
                    .map_err(|e| format!("--search-ms: {e}"))?;
                if !(protect_config.search_ms.is_finite() && protect_config.search_ms >= 0.0) {
                    return Err("--search-ms expects a non-negative delay".into());
                }
            }
            "--dump-trace" => {
                dump_trace = Some(value("--dump-trace")?.into());
            }
            "--bench-multi" => {
                bench_multi = true;
                config.group_size = 12;
                config.scenarios = 70;
            }
            "--loss" => {
                config.ambient_loss = value("--loss")?
                    .parse()
                    .map_err(|e| format!("--loss: {e}"))?;
                if !(0.0..1.0).contains(&config.ambient_loss) {
                    return Err("--loss expects a probability in [0, 1)".into());
                }
                // The protection sweep always keeps the lossless baseline
                // point; `--loss` moves its degraded point.
                protect_config.loss_points = vec![0.0, config.ambient_loss];
            }
            "--scenarios" => {
                config.scenarios = value("--scenarios")?
                    .parse()
                    .map_err(|e| format!("--scenarios: {e}"))?;
                protect_config.scenarios_per_cell = config.scenarios;
                hierarchy_config.scenarios = config.scenarios;
            }
            "--nodes" => {
                config.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
                protect_config.nodes = config.nodes;
            }
            "--group" => {
                config.group_size = value("--group")?
                    .parse()
                    .map_err(|e| format!("--group: {e}"))?;
                protect_config.group_size = config.group_size;
            }
            "--groups" => {
                config.groups = value("--groups")?
                    .parse()
                    .map_err(|e| format!("--groups: {e}"))?;
                if config.groups == 0 {
                    return Err("--groups expects at least 1 session".into());
                }
            }
            "--seed" => {
                let raw = value("--seed")?;
                config.base_seed = raw
                    .strip_prefix("0x")
                    .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16))
                    .map_err(|e| format!("--seed: {e}"))?;
                protect_config.base_seed = config.base_seed;
                hierarchy_config.base_seed = config.base_seed;
            }
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs expects at least 1 worker".into());
                }
            }
            "--out" => {
                out = Some(value("--out")?.into());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        config,
        protect_config,
        hierarchy_config,
        jobs,
        bench,
        bench_multi,
        protect,
        hierarchy,
        dump_trace,
        out: out.unwrap_or_else(|| {
            results_dir().join(if bench_multi {
                "faultlab-multisession.json"
            } else if bench {
                "faultlab-bench.json"
            } else if protect {
                "faultlab-protect.json"
            } else if hierarchy {
                "faultlab-hierarchy.json"
            } else {
                "faultlab.json"
            })
        }),
    })
}

fn write_out(out: &std::path::Path, json: String) -> Result<(), ExitCode> {
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("faultlab: could not create {}: {e}", dir.display());
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Err(e) = std::fs::write(out, json + "\n") {
        eprintln!("faultlab: could not write {}: {e}", out.display());
        return Err(ExitCode::from(2));
    }
    println!("wrote {}", out.display());
    Ok(())
}

fn report_failures(report: &CampaignReport, out: &std::path::Path) {
    for repro in &report.reproducers {
        eprintln!(
            "violation: case {} ({}, seed {:#x}) under {}: {:?}",
            repro.case.id, repro.case.family, repro.case.seed, repro.proto, repro.violations
        );
    }
    if !report.is_clean() {
        eprintln!(
            "faultlab: {} invariant violations — reproducers are in {}",
            report.total_violations,
            out.display()
        );
    }
    if report.clear_channel_exhaustions() > 0 {
        eprintln!(
            "faultlab: {} retry-budget exhaustions outside gray-link cases — \
             the reliable layer gave up on reachable neighbors",
            report.clear_channel_exhaustions()
        );
    }
}

/// Runs the protection-vs-restoration sweep and prints its synopsis.
fn protect_report(args: &Args) -> Result<ProtectReport, ExitCode> {
    let started = std::time::Instant::now();
    let run = match run_protect(&args.protect_config, args.jobs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("faultlab: protection sweep failed: {e}");
            return Err(ExitCode::from(2));
        }
    };
    let report = ProtectReport::from_run(&run);
    print!("{}", report.synopsis());
    println!(
        "  ({:.2}s on {} jobs)",
        started.elapsed().as_secs_f64(),
        args.jobs
    );
    Ok(report)
}

/// Gate shared by `--protect` and the bench's protection section: the
/// sweep must be healthy *and* activation must strictly beat search at
/// every loss point.
fn protect_gate(report: &ProtectReport) -> bool {
    if !report.is_healthy() {
        eprintln!("faultlab: protection sweep is unhealthy");
        return false;
    }
    if !report.protection_wins() {
        eprintln!(
            "faultlab: precomputed activation did not strictly beat on-demand \
             search at every loss point"
        );
        return false;
    }
    true
}

/// The `--protect` path: the protection sweep alone, written as its own
/// artifact.
fn run_protect_cli(args: &Args) -> ExitCode {
    let report = match protect_report(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let json = report.to_json();
    if let Err(code) = write_out(&args.out, json) {
        return code;
    }
    if protect_gate(&report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--bench` path: the configured campaign lossless, then under
/// ambient loss, reporting the latency inflation between them.
fn run_bench(args: &Args) -> ExitCode {
    let ambient_loss = if args.config.ambient_loss > 0.0 {
        args.config.ambient_loss
    } else {
        0.1
    };
    let mut reports = Vec::new();
    for loss in [0.0, ambient_loss] {
        let config = CampaignConfig {
            ambient_loss: loss,
            ..args.config.clone()
        };
        let started = std::time::Instant::now();
        let run = match run_campaign(&config, args.jobs) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("faultlab: campaign failed: {e}");
                return ExitCode::from(2);
            }
        };
        let report = CampaignReport::from_run(&run);
        println!("=== ambient loss {loss} ===");
        print!("{}", report.synopsis());
        println!(
            "  ({:.2}s on {} jobs)",
            started.elapsed().as_secs_f64(),
            args.jobs
        );
        reports.push(report);
    }
    let lossy = reports.pop().expect("two runs");
    let lossless = reports.pop().expect("two runs");
    let protection = match protect_report(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let bench = BenchReport {
        ambient_loss,
        latency_inflation: inflation(&lossless, &lossy),
        lossless,
        lossy,
        protection,
    };
    for i in &bench.latency_inflation {
        println!(
            "latency inflation[{}]: {:.2}ms -> {:.2}ms (x{:.3})",
            i.proto, i.lossless_mean_ms, i.lossy_mean_ms, i.factor
        );
    }
    for lp in &bench.protection.loss_points {
        println!(
            "protection[loss={:.0}%]: activation p50={:.2}ms vs search p50={:.2}ms",
            lp.loss * 100.0,
            lp.protection_p50_ms,
            lp.reactive_p50_ms,
        );
    }
    let json = serde_json::to_string_pretty(&bench).expect("bench report serializes");
    if let Err(code) = write_out(&args.out, json) {
        return code;
    }
    let healthy =
        bench.lossless.is_healthy() && bench.lossy.is_healthy() && protect_gate(&bench.protection);
    if healthy {
        ExitCode::SUCCESS
    } else {
        report_failures(&bench.lossless, &args.out);
        report_failures(&bench.lossy, &args.out);
        ExitCode::FAILURE
    }
}

/// The `--hierarchy` path: one wire-level N-level campaign, gated on the
/// DomainLocality verdict.
fn run_hierarchy_cli(args: &Args) -> ExitCode {
    let started = std::time::Instant::now();
    let run = match run_hierarchy(&args.hierarchy_config, args.jobs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("faultlab: hierarchy campaign failed: {e}");
            return ExitCode::from(2);
        }
    };
    let report = HierarchyReport::from_run(&run);
    print!("{}", report.synopsis());
    println!(
        "  ({:.2}s on {} jobs)",
        started.elapsed().as_secs_f64(),
        args.jobs
    );
    if let Err(code) = write_out(&args.out, report.to_json()) {
        return code;
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "faultlab: hierarchy campaign is not clean — {} border crossings, \
             {} unaudited cases, {} members never restored",
            report.locality.border_crossings,
            report.locality.cases_unaudited,
            report
                .outcomes
                .get("detection-missed")
                .copied()
                .unwrap_or(0),
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("faultlab: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(dir) = &args.dump_trace {
        return match smrp_faultlab::dump_traces(dir, args.jobs) {
            Ok(paths) => {
                for p in &paths {
                    println!("wrote {}", p.display());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("faultlab: trace dump failed: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.bench_multi {
        return run_bench_multi(&args);
    }
    if args.bench {
        return run_bench(&args);
    }
    if args.protect {
        return run_protect_cli(&args);
    }
    if args.hierarchy {
        return run_hierarchy_cli(&args);
    }

    let started = std::time::Instant::now();
    let run = match run_campaign(&args.config, args.jobs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("faultlab: campaign failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();
    let report = CampaignReport::from_run(&run);

    // Timing goes to the terminal only; the report file stays byte-stable.
    print!("{}", report.synopsis());
    println!(
        "  {} cases in {:.2}s on {} jobs ({:.1} cases/s)",
        report.cases,
        elapsed.as_secs_f64(),
        args.jobs,
        f64::from(report.cases) / elapsed.as_secs_f64().max(1e-9)
    );

    if let Err(code) = write_out(&args.out, report.to_json()) {
        return code;
    }

    if report.is_healthy() {
        ExitCode::SUCCESS
    } else {
        report_failures(&report, &args.out);
        ExitCode::FAILURE
    }
}
