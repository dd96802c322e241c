//! `BENCH_hierarchy`: wire-level N-level recovery-domain campaigns across
//! hierarchy depth and aggregated receiver population.
//!
//! Sweeps levels ∈ {2, 3, 4} × population ∈ {10⁴, 10⁶}. Every cell runs a
//! full `smrp_faultlab::hierarchy` campaign: one `MultiSession` group per
//! active recovery domain over the shared substrate, repairs installed
//! through the explicit-plan seam, every send of every case audited
//! against the DomainLocality invariant as the simulator runs. A cell is
//! **clean** only if the campaign reports zero border crossings, full
//! audit coverage and no member left unrestored — the headline being the
//! 4-level cell serving a million aggregated receivers without a single
//! cross-border control message.
//!
//! The grid is reduced unless `SMRP_BENCH_FULL=1` (full sweep, the
//! committed `BENCH_hierarchy.json`). `SMRP_HIERARCHY_CELL=LxP` (e.g.
//! `3x10000`) restricts the sweep to one cell for CI smoke jobs. Results
//! write to `BENCH_hierarchy.json` at the repository root.

use std::time::Instant;

use serde::Serialize;
use smrp_bench::header;
use smrp_faultlab::{run_hierarchy, HierarchyConfig, HierarchyReport};

/// Per-depth topology shapes. Deeper trees shrink the per-level fanout so
/// the *domain count* (and with it the group count on the wire) grows
/// with depth while the node count stays simulable; scale in receivers
/// comes from the aggregated populations, not from more routers — that is
/// the point of Eq. 2's weighting.
fn config(levels: u32, population: u64) -> HierarchyConfig {
    let (root_nodes, fanout, domain_nodes, scenarios) = match levels {
        2 => (6, 4, 10, 32),
        3 => (4, 2, 8, 32),
        4 => (2, 1, 5, 32),
        other => panic!("no bench shape for levels={other}"),
    };
    HierarchyConfig {
        levels,
        root_nodes,
        fanout,
        domain_nodes,
        population,
        scenarios,
        base_seed: 0xB_E4C8 ^ u64::from(levels),
        ..HierarchyConfig::default()
    }
}

#[derive(Serialize)]
struct Cell {
    levels: u32,
    population: u64,
    nodes: usize,
    active_domains: usize,
    total_population: u64,
    cases: u32,
    confined_repairs: u32,
    escalated_elections: u32,
    unrepairable: u32,
    restored_members: u64,
    restoration_mean_ms: f64,
    restoration_p95_ms: f64,
    border_crossings: u64,
    cases_unaudited: u64,
    campaign_ms: f64,
    clean: bool,
    report: HierarchyReport,
}

#[derive(Serialize)]
struct Report {
    sweep: String,
    cells: Vec<Cell>,
}

fn run_cell(levels: u32, population: u64, jobs: usize) -> Cell {
    let cfg = config(levels, population);
    let t = Instant::now();
    let run = run_hierarchy(&cfg, jobs).expect("hierarchy topology generates");
    let campaign_ms = t.elapsed().as_secs_f64() * 1e3;
    let report = HierarchyReport::from_run(&run);
    let outcome = |k: &str| report.outcomes.get(k).copied().unwrap_or(0);
    Cell {
        levels,
        population,
        nodes: report.nodes,
        active_domains: report.active_domains,
        total_population: report.total_population,
        cases: report.cases,
        confined_repairs: outcome("confined-repair"),
        escalated_elections: outcome("escalated-election"),
        unrepairable: outcome("unrepairable"),
        restored_members: report.restoration.count,
        restoration_mean_ms: report.restoration.mean_ms,
        restoration_p95_ms: report.restoration.p95_ms,
        border_crossings: report.locality.border_crossings,
        cases_unaudited: report.locality.cases_unaudited,
        campaign_ms,
        clean: report.is_clean(),
        report,
    }
}

fn grid() -> Vec<(u32, u64)> {
    if let Ok(cell) = std::env::var("SMRP_HIERARCHY_CELL") {
        let (l, p) = cell
            .split_once('x')
            .expect("SMRP_HIERARCHY_CELL must look like 3x10000");
        return vec![(l.parse().expect("levels"), p.parse().expect("population"))];
    }
    let full = std::env::var_os("SMRP_BENCH_FULL").is_some();
    let levels: &[u32] = if full { &[2, 3, 4] } else { &[2] };
    let populations: &[u64] = if full {
        &[10_000, 1_000_000]
    } else {
        &[10_000]
    };
    let mut cells = Vec::new();
    for &l in levels {
        for &p in populations {
            cells.push((l, p));
        }
    }
    cells
}

fn main() {
    header(
        "BENCH_hierarchy: N-level recovery domains x aggregated populations",
        "failure repair must stay confined to the owning recovery domain \
         (zero cross-border control messages) at every depth, while \
         aggregated member populations scale receivers to planetary counts \
         without adding routers",
    );

    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut report = Report {
        sweep: "levels x aggregated population; one MultiSession group per \
                active recovery domain, explicit-plan installs, full-trace \
                DomainLocality audit per case"
            .to_string(),
        cells: Vec::new(),
    };
    for (levels, population) in grid() {
        let cell = run_cell(levels, population, jobs);
        println!(
            "levels={levels} pop={population:<8} nodes={nodes:<5} domains={doms:<4} \
             receivers={recv:<8} repairs {rep:>3}+{el} elections  restored {res:>3} \
             (mean {mean:>6.2} ms)  crossings {bc}  {ms:>8.1} ms  clean={clean}",
            nodes = cell.nodes,
            doms = cell.active_domains,
            recv = cell.total_population,
            rep = cell.confined_repairs,
            el = cell.escalated_elections,
            res = cell.restored_members,
            mean = cell.restoration_mean_ms,
            bc = cell.border_crossings,
            ms = cell.campaign_ms,
            clean = cell.clean,
        );
        assert!(
            cell.clean,
            "cell levels={levels} population={population} is not clean"
        );
        report.cells.push(cell);
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hierarchy.json");
    smrp_experiments::report::write_json(&path, &report).expect("write BENCH_hierarchy.json");
    println!("wrote {}", path.display());
}
