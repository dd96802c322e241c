//! Lockstep proof that the typed DomainLocality audit and the Debug-string
//! trace see the same traffic.
//!
//! `run_hierarchy` audits each case with a [`LocalityAudit`] observer that
//! reads the group tag of every send as a typed value. This test replays
//! every wire case of two campaigns twice — once under the audit, once
//! under a [`TraceLog`] — and recomputes the audit from the rendered trace
//! with the old string parser as the oracle. Per-group send and crossing
//! counts must agree exactly, and both must agree with the campaign's own
//! verdicts. The parser below is the only place the `Debug` rendering of a
//! `GroupMsg` is read back.

use smrp_core::SmrpConfig;
use smrp_faultlab::{run_hierarchy, DomainBorders, HierarchyConfig, HierarchyOutcome};
use smrp_net::{FailureScenario, GroupId, NodeId};
use smrp_proto::hierarchy::NLevelSession;
use smrp_proto::{FailureTiming, InjectionTiming, MultiSession, ProtoSession, RecoveryPlan};
use smrp_sim::{ChannelSpec, SimTime, TraceEvent, TraceLog};

/// The `levels2_config` of `hierarchy_determinism.rs`.
fn levels2_config() -> HierarchyConfig {
    HierarchyConfig {
        levels: 2,
        root_nodes: 4,
        fanout: 3,
        domain_nodes: 6,
        population: 2_000,
        scenarios: 10,
        base_seed: 0x2CAFE,
        run_until_ms: 1200.0,
        ..HierarchyConfig::default()
    }
}

fn levels3_config() -> HierarchyConfig {
    HierarchyConfig {
        levels: 3,
        root_nodes: 3,
        fanout: 2,
        domain_nodes: 6,
        population: 5_000,
        scenarios: 12,
        base_seed: 42,
        run_until_ms: 1200.0,
        ..HierarchyConfig::default()
    }
}

/// The oracle: parses the group id out of a rendered message
/// (`"GroupMsg { group: GroupId(3), inner: ... }"`).
fn trace_group(what: &str) -> Option<usize> {
    let rest = what.strip_prefix("GroupMsg { group: GroupId(")?;
    rest[..rest.find(')')?].parse().ok()
}

/// Replays every wire case of `cfg` under both streams; returns how many
/// cases it compared.
fn lockstep(cfg: &HierarchyConfig) -> usize {
    let run = run_hierarchy(cfg, 1).unwrap();
    let topo = cfg.topology().unwrap();
    let (source, members) = cfg.pick_members(&topo);
    let nsess = NLevelSession::build(&topo, source, &members, SmrpConfig::default()).unwrap();
    let graph = nsess.topology().graph();
    let domains = nsess.active_domain_ids();
    let multi = MultiSession::from_sessions(
        domains
            .iter()
            .map(|&d| ProtoSession::from_tree(graph, nsess.domain_tree_global(d).unwrap()))
            .collect(),
    );
    let borders = DomainBorders::new(&nsess, &domains);
    let timing = InjectionTiming::Once(FailureTiming::persistent(SimTime::from_ms(cfg.fail_at_ms)));
    let until = SimTime::from_ms(cfg.run_until_ms);

    let mut compared = 0;
    for r in &run.results {
        if matches!(
            r.outcome,
            HierarchyOutcome::Unaffected | HierarchyOutcome::Unrepairable
        ) {
            continue;
        }
        let rec = nsess.recover(r.case.link).unwrap();
        let owner = domains.iter().position(|&d| d == rec.owner).unwrap();
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
        let channel = ChannelSpec::perfect();

        let mut audit = borders.audit(owner, &rec.plans);
        let typed =
            multi.run_failure_planned(&scenario, &plans, timing, &channel, until, &mut audit);
        let (traced, trace) = multi.run_failure_planned_traced(
            &scenario,
            &plans,
            timing,
            &channel,
            until,
            TraceLog::new(4_000_000),
        );
        assert_eq!(trace.discarded(), 0, "case {}: trace overflowed", r.case.id);
        assert_eq!(typed.groups.len(), traced.groups.len());

        let mut sends = vec![0u64; domains.len()];
        let mut crossings = vec![0u64; domains.len()];
        for ev in trace.entries() {
            let TraceEvent::Sent { from, to, what, .. } = ev else {
                continue;
            };
            let g = trace_group(what)
                .unwrap_or_else(|| panic!("oracle cannot parse a sent message: {what}"));
            sends[g] += 1;
            if !audit.allows(g, *from) || !audit.allows(g, *to) {
                crossings[g] += 1;
            }
        }
        assert_eq!(audit.sends(), sends, "case {}: per-group sends", r.case.id);
        assert_eq!(
            audit.crossings(),
            crossings,
            "case {}: per-group crossings",
            r.case.id
        );
        assert!(sends[owner] > 0, "case {}: owner sent nothing", r.case.id);
        assert_eq!(audit.audited(), r.audited);
        // The campaign's verdicts came from the same audit.
        for (g, slice) in r.domains.iter().enumerate() {
            let leaked = if g == owner {
                0
            } else {
                typed.groups[g].restorations.len() as u64
            };
            assert_eq!(slice.border_crossings, audit.crossings()[g] + leaked);
        }
        compared += 1;
    }
    compared
}

#[test]
fn typed_audit_matches_the_trace_oracle_at_two_levels() {
    assert!(lockstep(&levels2_config()) > 0, "no wire cases compared");
}

#[test]
fn typed_audit_matches_the_trace_oracle_at_three_levels() {
    assert!(lockstep(&levels3_config()) > 0, "no wire cases compared");
}
