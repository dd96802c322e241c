//! `hierarchy-audit`: the BENCH_hierarchy 3-level cell.
//!
//! Root 4 nodes, fanout 2, 8-node domains, population 10⁴: 1092 nodes,
//! one `MultiSession` group per active domain on one engine, link-cut
//! cases whose full message traces are audited for DomainLocality. The
//! timed unit is six `run_hierarchy` calls of two cases each, each on its
//! own seeded topology, on one worker.
//!
//! `run_hierarchy` has no public seam around its DomainLocality audit, so
//! the traced round runs it whole and then *replays* its public children —
//! topology, `NLevelSession` build, `NLevelSession::recover` and the traced
//! simulator run per case — each in its own span. The audit (with case
//! generation and classification) is reported as the remainder:
//! `run_hierarchy` time minus the replayed children. The replay must
//! reproduce `run_hierarchy`'s latencies, control counts and audit
//! coverage exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use smrp_core::SmrpConfig;
use smrp_faultlab::{run_hierarchy, HierarchyConfig, HierarchyOutcome, HierarchyRun};
use smrp_net::{FailureScenario, GroupId, NodeId};
use smrp_proto::hierarchy::NLevelSession;
use smrp_proto::{FailureTiming, InjectionTiming, MultiSession, ProtoSession, RecoveryPlan};
use smrp_sim::{ChannelSpec, SimTime, TraceEvent, TraceLog};

use super::{count_report, sub_seed};
use crate::bench::{Counts, Unit, Verdict, Workload};
use crate::span::Tracer;
use crate::stats::{percentile, Metrics, Tally};

/// The per-case trace capacity `run_hierarchy` uses; the replay must match
/// it so that audit coverage compares.
const TRACE_CAP: usize = 2_000_000;

/// Layers the replay measures; whatever else `run_hierarchy` spends is the
/// DomainLocality audit remainder.
const REPLAYED: [&str; 4] = [
    "net.topology",
    "proto.hier_build",
    "proto.hier_recover",
    "proto.run",
];

/// Campaigns per unit, each on its own topology: a case costs in
/// proportion to the domain trees' sizes, which the topology fixes, so a
/// unit averages over several.
const CAMPAIGNS: u64 = 6;
/// Cases per campaign.
const CASES: usize = 2;

pub struct HierarchyAudit {
    cfgs: Vec<HierarchyConfig>,
}

impl HierarchyAudit {
    pub fn new(seed: u64) -> Self {
        let cfgs = (0..CAMPAIGNS)
            .map(|k| HierarchyConfig {
                levels: 3,
                root_nodes: 4,
                fanout: 2,
                domain_nodes: 8,
                population: 10_000,
                scenarios: CASES,
                base_seed: sub_seed(seed, 0x41E2_A2C4 + k),
                ..HierarchyConfig::default()
            })
            .collect();
        HierarchyAudit { cfgs }
    }
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct HierarchyFacts {
    cases: u64,
    /// Case count per outcome name.
    outcomes: BTreeMap<&'static str, u64>,
    latencies_ms: Vec<f64>,
    wire_affected: u64,
    restored: u64,
    control_messages: u64,
    border_crossings: u64,
    unaudited: u64,
    elections: u64,
    /// Cases that missed a member, went unaudited or crossed a border.
    failed_cases: u64,
}

impl HierarchyFacts {
    /// Cases put on the wire: every case but those decided before the
    /// simulator (unaffected links and cuts without doctrine).
    fn wire_cases(&self) -> u64 {
        let decided: u64 = ["unaffected", "unrepairable"]
            .iter()
            .filter_map(|o| self.outcomes.get(o))
            .sum();
        self.cases - decided
    }
}

fn add_run(f: &mut HierarchyFacts, run: &HierarchyRun) {
    f.cases += run.results.len() as u64;
    for r in &run.results {
        *f.outcomes.entry(r.outcome.name()).or_insert(0) += 1;
        f.latencies_ms.extend(&r.latencies_ms);
        f.wire_affected += u64::from(r.wire_affected);
        f.restored += u64::from(r.restored);
        f.elections += u64::from(r.elections);
        let crossings: u64 = r.domains.iter().map(|d| d.border_crossings).sum();
        f.control_messages += r.domains.iter().map(|d| d.control_messages).sum::<u64>();
        f.border_crossings += crossings;
        f.unaudited += u64::from(!r.audited);
        f.failed_cases += u64::from(
            r.outcome == HierarchyOutcome::DetectionMissed || !r.audited || crossings > 0,
        );
    }
}

/// Replays `run_hierarchy`'s public children for every case of `run`,
/// each in its layer's span, and checks that they reproduce the run.
fn replay(
    cfg: &HierarchyConfig,
    run: &HierarchyRun,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let topo = tr
        .time("net.topology", || cfg.topology())
        .map_err(|e| e.to_string())?;
    let (source, members) = cfg.pick_members(&topo);
    let nsess = tr.time("proto.hier_build", || {
        NLevelSession::build(&topo, source, &members, SmrpConfig::default())
            .expect("hierarchy sessions build on generated topologies")
    });
    let graph = nsess.topology().graph();
    let domains = nsess.active_domain_ids();
    let multi = tr.time("proto.hier_build", || {
        let sessions = domains
            .iter()
            .map(|&d| {
                let tree = nsess
                    .domain_tree_global(d)
                    .expect("active domains have trees");
                ProtoSession::from_tree(graph, tree)
            })
            .collect();
        MultiSession::from_sessions(sessions)
    });

    for r in &run.results {
        let rec = tr.time("proto.hier_recover", || nsess.recover(r.case.link));
        counts.add("proto.hier_recovers", 1.0);
        let rec = match rec {
            Ok(rec) if rec.domains_involved > 0 => rec,
            Ok(_) if r.outcome == HierarchyOutcome::Unaffected => continue,
            Err(_) if r.outcome == HierarchyOutcome::Unrepairable => continue,
            _ => {
                return Err(format!(
                    "replayed recovery of case {} disagrees with its outcome {}",
                    r.case.id,
                    r.outcome.name()
                ))
            }
        };
        counts.add("core.recoveries", rec.restoration_paths.len() as f64);
        counts.add("core.rd_ms_sum", rec.recovery_distance);
        let owner = domains
            .iter()
            .position(|&d| d == rec.owner)
            .ok_or("owner of an affecting failure runs no session")?;
        let plans: Vec<(GroupId, NodeId, RecoveryPlan)> = rec
            .plans
            .iter()
            .map(|p| {
                let plan = RecoveryPlan {
                    path: p.path.clone(),
                    wait: SimTime::ZERO,
                    path_delay: SimTime::from_ms(p.delay_ms),
                };
                (GroupId::new(owner), p.member, plan)
            })
            .collect();
        let scenario = FailureScenario::link(r.case.link);
        let timing =
            InjectionTiming::Once(FailureTiming::persistent(SimTime::from_ms(cfg.fail_at_ms)));
        let until = SimTime::from_ms(cfg.run_until_ms);
        let (report, trace) = tr.time("proto.run", || {
            multi.run_failure_planned_traced(
                &scenario,
                &plans,
                timing,
                &ChannelSpec::perfect(),
                until,
                TraceLog::new(TRACE_CAP),
            )
        });
        count_report(counts, &report);
        counts.add("sim.trace_events", trace.len() as f64);
        let bytes: usize = trace
            .entries()
            .iter()
            .map(|ev| match ev {
                TraceEvent::Sent { what, .. }
                | TraceEvent::Delivered { what, .. }
                | TraceEvent::TimerFired { what, .. } => what.len(),
                TraceEvent::Dropped { .. } => 0,
            })
            .sum();
        counts.add("sim.trace_bytes", bytes as f64);

        let same = report.groups[owner].latencies_ms() == r.latencies_ms
            && (trace.discarded() == 0) == r.audited
            && report
                .groups
                .iter()
                .zip(&r.domains)
                .all(|(g, d)| g.control.total() == d.control_messages);
        if !same {
            return Err(format!(
                "replayed run of case {} differs from run_hierarchy's",
                r.case.id
            ));
        }
        // Freeing the trace is part of the trace path's cost.
        tr.time("proto.run", || drop(trace));
    }
    Ok(())
}

impl Workload for HierarchyAudit {
    type Setup = ();
    type Facts = HierarchyFacts;

    const WORK: (&'static str, &'static str) = ("wire_cases_per_s", "cases/s");

    /// The set-up `run_hierarchy` performs before its first case, for every
    /// campaign: topology, member draws, the N-level session and one wire
    /// session per domain.
    fn setup(&self) {
        for cfg in &self.cfgs {
            let topo = cfg.topology().expect("hierarchy parameters are valid");
            let (source, members) = cfg.pick_members(&topo);
            let nsess = NLevelSession::build(&topo, source, &members, SmrpConfig::default())
                .expect("hierarchy sessions build on generated topologies");
            let graph = nsess.topology().graph();
            let sessions = nsess
                .active_domain_ids()
                .into_iter()
                .map(|d| {
                    let tree = nsess
                        .domain_tree_global(d)
                        .expect("active domains have trees");
                    ProtoSession::from_tree(graph, tree)
                })
                .collect();
            black_box(MultiSession::from_sessions(sessions));
        }
    }

    /// One worker: a case takes about a second, and with so few of them
    /// two workers' load imbalance moved the rate by up to 20% between
    /// runs of one seed.
    fn jobs(&self, _cores: usize) -> usize {
        1
    }

    fn unit(&self, _: &(), jobs: usize) -> Unit<HierarchyFacts> {
        let mut facts = HierarchyFacts::default();
        let mut busy_s = 0.0;
        for cfg in &self.cfgs {
            let t = Instant::now();
            let run = run_hierarchy(cfg, jobs).expect("hierarchy topology generates");
            busy_s += t.elapsed().as_secs_f64();
            add_run(&mut facts, &run);
        }
        Unit {
            work: facts.wire_cases(),
            busy_s,
            also: vec![("cases_per_s", "cases/s", facts.cases)],
            facts,
        }
    }

    fn plain_round(&self) -> HierarchyFacts {
        let mut facts = HierarchyFacts::default();
        for cfg in &self.cfgs {
            add_run(
                &mut facts,
                &run_hierarchy(cfg, 1).expect("hierarchy topology generates"),
            );
        }
        facts
    }

    fn traced_round(&self, tr: &mut Tracer, counts: &mut Counts) -> Result<HierarchyFacts, String> {
        let mut facts = HierarchyFacts::default();
        for cfg in &self.cfgs {
            let run = tr
                .time("faultlab.run_hierarchy", || run_hierarchy(cfg, 1))
                .map_err(|e| e.to_string())?;
            let id = tr.enter("replay");
            let replayed = replay(cfg, &run, tr, counts);
            tr.exit(id);
            replayed?;
            add_run(&mut facts, &run);
        }
        Ok(facts)
    }

    fn verdict(&self, f: &HierarchyFacts) -> Verdict {
        let mut problems = Vec::new();
        if f.border_crossings > 0 {
            problems.push(format!("{} border crossings", f.border_crossings));
        }
        if f.unaudited > 0 {
            problems.push(format!("{} unaudited cases", f.unaudited));
        }
        let missed = f.outcomes.get("detection-missed").copied().unwrap_or(0);
        if missed > 0 {
            problems.push(format!("{missed} cases left a member unrestored"));
        }
        let mut sim = Metrics::default();
        let mut put = |name: &str, v: f64, unit: &'static str| {
            sim.push(name, v, unit)
                .expect("simulated metric names are valid");
        };
        if let Some(p) = percentile(&f.latencies_ms, 0.5) {
            put("restore_ms.p50", p.value, "ms");
            put("restore_ms.samples", p.samples as f64, "count");
        }
        put(
            "ctrl_msgs_per_case",
            f.control_messages as f64 / f.cases.max(1) as f64,
            "msgs",
        );
        put("elections", f.elections as f64, "count");
        put("wire_cases", f.wire_cases() as f64, "count");
        for (name, n) in &f.outcomes {
            put(&format!("outcome.{name}"), *n as f64, "count");
        }
        Verdict {
            problems,
            tally: Tally {
                attempted: f.cases,
                failed: f.failed_cases,
            },
            sim,
        }
    }

    /// Credits `run_hierarchy`'s time to the replayed layers and reports
    /// what they do not explain as the DomainLocality audit.
    fn attribute(&self, round: &mut BTreeMap<&'static str, i64>) {
        let Some(whole) = round.remove("faultlab.run_hierarchy") else {
            return;
        };
        let replayed: i64 = REPLAYED.iter().filter_map(|n| round.get(n)).sum();
        round.insert("faultlab.locality_audit", whole - replayed);
    }
}
