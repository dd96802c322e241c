//! `campaign-mix`: the classic faultlab campaign on its default channels.
//!
//! Waxman n=400, α=0.2, one 30-member SMRP session plus the SPF baseline,
//! all seven fault families of `generate_mix`: the five component-failure
//! families run lossless, the uniform-loss and gray-link families on
//! their own lossy channels, so the reliable layer retransmits on two
//! cases in seven. No ambient loss is added: under 10% ambient loss some
//! component-failure cases leave a reachable member unrestored (see the
//! README's "Known failures"), and the workload keeps to inputs on which
//! no operation fails. The timed unit is eight
//! `run_campaign` calls, each on its own seeded topology. The traced round
//! makes the same calls `run_campaign` makes, one public function at a
//! time, so that topology, tree build, case generation, planning, auditing
//! and the simulator each get their own spans; its outcome must equal
//! `run_campaign`'s.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use smrp_core::recovery::{self, DetourKind};
use smrp_core::{SmrpConfig, SmrpSession, SpfSession};
use smrp_faultlab::{
    audit_recovery, generate_mix, run_campaign, CampaignConfig, CampaignRun, FaultCase, Outcome,
    ProtoKind, ProtoOutcome,
};
use smrp_proto::{
    FailureTiming, InjectionTiming, MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol,
};
use smrp_sim::SimTime;

use super::{add_ctrl, count_report, sub_seed};
use crate::bench::{Counts, Unit, Verdict, Workload};
use crate::span::Tracer;
use crate::stats::{percentile, tail_percentile, Metrics, Tally};

/// Campaigns per unit, each on its own topology: the cost of a case
/// depends on the topology, so a unit averages over several.
const CAMPAIGNS: u64 = 8;
/// Fault cases per campaign: five of each of the seven families. The
/// unit's 280 cases let the SMRP arm restore some 250 members.
const CASES: usize = 35;

pub struct CampaignMix {
    cfgs: Vec<CampaignConfig>,
}

impl CampaignMix {
    pub fn new(seed: u64) -> Self {
        let cfgs = (0..CAMPAIGNS)
            .map(|k| CampaignConfig {
                nodes: 400,
                group_size: 30,
                groups: 1,
                alpha: 0.2,
                scenarios: CASES,
                base_seed: sub_seed(seed, 0xCA4B_A1E5 + k),
                ambient_loss: 0.0,
                ..CampaignConfig::default()
            })
            .collect();
        CampaignMix { cfgs }
    }
}

/// One protocol arm's simulated outcome over all cases.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ArmFacts {
    affected: u64,
    restored: u64,
    latencies_ms: Vec<f64>,
    /// Hello, refresh, setup, leave.
    ctrl: [u64; 4],
    retransmits: u64,
    acks: u64,
    dup_drops: u64,
    retry_exhaustions: u64,
    channel_lost: u64,
    violations: u64,
    /// Retry exhaustions in cases without gray links.
    clear_exhaustions: u64,
    /// Evaluations that ran the simulator (the rest were decided by
    /// planning and auditing alone).
    sim_runs: u64,
    /// Evaluations that ended in an invariant violation or a missed
    /// detection.
    failed: u64,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct CampaignFacts {
    cases: u64,
    /// Cases where an arm saw an invariant violation or a reachable
    /// member that never restored.
    failed_cases: u64,
    /// Failed cases per fault family.
    failed_by_family: BTreeMap<&'static str, u64>,
    smrp: ArmFacts,
    spf: ArmFacts,
}

impl CampaignFacts {
    fn record_case(&mut self, case: &FaultCase, smrp_failed: bool, spf_failed: bool) {
        self.smrp.failed += u64::from(smrp_failed);
        self.spf.failed += u64::from(spf_failed);
        if smrp_failed || spf_failed {
            self.failed_cases += 1;
            *self.failed_by_family.entry(case.family.name()).or_insert(0) += 1;
        }
    }
}

fn is_failure(o: Outcome) -> bool {
    matches!(o, Outcome::InvariantViolation | Outcome::DetectionMissed)
}

fn arm_from_outcome(arm: &mut ArmFacts, case: &FaultCase, o: &ProtoOutcome) {
    arm.affected += u64::from(o.affected);
    arm.restored += u64::from(o.restored);
    arm.latencies_ms.extend(&o.latencies_ms);
    for g in &o.groups {
        add_ctrl(&mut arm.ctrl, &g.control);
    }
    arm.retransmits += o.health.retransmits;
    arm.acks += o.health.acks;
    arm.dup_drops += o.health.dup_drops;
    arm.retry_exhaustions += o.health.retry_exhaustions;
    arm.channel_lost += o.health.loss_by_class.values().sum::<u64>();
    arm.violations += o.violations.len() as u64;
    if case.channel.overrides.is_empty() && o.outcome != Outcome::RestoredAfterReplan {
        arm.clear_exhaustions += o.health.retry_exhaustions;
    }
    // A simulated run always sends hellos; a decided one sends nothing.
    arm.sim_runs += u64::from(o.groups.iter().any(|g| g.control.total() > 0));
}

fn add_run(facts: &mut CampaignFacts, run: &CampaignRun) {
    facts.cases += run.results.len() as u64;
    for r in &run.results {
        arm_from_outcome(&mut facts.smrp, &r.case, &r.smrp);
        arm_from_outcome(&mut facts.spf, &r.case, &r.spf);
        facts.record_case(
            &r.case,
            is_failure(r.smrp.outcome),
            is_failure(r.spf.outcome),
        );
    }
}

/// Per-group analysis before the simulator runs, as the campaign does it.
struct Pre {
    affected: usize,
    violations: usize,
    /// The group's outcome is decided without simulating it.
    decided: bool,
}

/// One (case, protocol) evaluation made of the same public calls the
/// campaign makes, each inside its layer's span. Returns whether the arm
/// failed (invariant violation or a reachable member never restored).
fn traced_arm(
    tr: &mut Tracer,
    counts: &mut Counts,
    multi: &MultiSession<'_>,
    cfg: &CampaignConfig,
    case: &FaultCase,
    proto: ProtoKind,
    arm: &mut ArmFacts,
) -> bool {
    let graph = multi.graph();
    let scenario = &case.scenario;
    let (kind, strategy) = match proto {
        ProtoKind::Smrp => (DetourKind::Local, RecoveryStrategy::LocalDetour),
        ProtoKind::Spf => (
            DetourKind::Global,
            RecoveryStrategy::GlobalDetour {
                reconvergence: SimTime::from_ms(cfg.reconvergence_ms),
            },
        ),
    };
    let mut pre = Vec::new();
    for g in multi.groups() {
        let session = multi.session(g);
        let affected = tr.time("core.plan", || {
            recovery::affected_members(graph, session.tree(), scenario)
        });
        if affected.is_empty() {
            pre.push(Pre {
                affected: 0,
                violations: 0,
                decided: true,
            });
            continue;
        }
        let plans = tr.time("core.plan", || session.plan_recoveries(scenario, kind));
        counts.add("core.plans", 1.0);
        if proto == ProtoKind::Smrp {
            for r in &plans.recoveries {
                counts.add("core.recoveries", 1.0);
                counts.add("core.rd_ms_sum", r.recovery_distance());
            }
        }
        let violations = tr.time("faultlab.audit", || {
            audit_recovery(graph, session.tree(), scenario, &plans)
        });
        counts.add("faultlab.audits", 1.0);
        pre.push(Pre {
            affected: affected.len(),
            violations: violations.len(),
            decided: !violations.is_empty() || !scenario.node_usable(session.source()),
        });
    }
    let mut failed = pre.iter().any(|p| p.violations > 0);
    for p in &pre {
        arm.affected += p.affected as u64;
        arm.violations += p.violations as u64;
    }
    if pre.iter().all(|p| p.decided) {
        return failed;
    }

    let fail_at = SimTime::from_ms(cfg.fail_at_ms);
    let timing = if case.timing.is_flapping() {
        InjectionTiming::Flapping {
            fail_at,
            down: SimTime::from_ms(case.timing.flap_down_ms),
            up: SimTime::from_ms(case.timing.flap_up_ms),
            cycles: case.timing.flap_cycles,
        }
    } else if case.timing.transient {
        InjectionTiming::Once(FailureTiming::transient(
            fail_at,
            SimTime::from_ms(cfg.fail_at_ms + case.timing.repair_after_ms),
        ))
    } else {
        InjectionTiming::Once(FailureTiming::persistent(fail_at))
    };
    // Without ambient loss every case runs on its generated channel.
    let until = SimTime::from_ms(cfg.run_until_ms);
    let report = tr.time("proto.run", || {
        multi.run_failure_spec(scenario, strategy, timing, &case.channel, until)
    });
    count_report(counts, &report);
    arm.sim_runs += 1;

    for (g, p) in multi.groups().zip(&pre) {
        let slice = &report.groups[g.index()];
        add_ctrl(&mut arm.ctrl, &slice.control);
        if p.decided {
            continue;
        }
        let latencies = slice.latencies_ms();
        arm.restored += latencies.len() as u64;
        arm.latencies_ms.extend(latencies);
        if !slice.all_restored() {
            let source = multi.session(g).source();
            let reach = tr.time("core.plan", || {
                recovery::reachable_from_source(graph, source, scenario)
            });
            let partitioned = slice
                .restorations
                .iter()
                .filter(|(_, l)| l.is_none())
                .all(|(m, _)| !scenario.node_usable(*m) || !reach[m.index()]);
            failed |= !partitioned || case.timing.heals();
        }
    }
    let h = &report.health;
    arm.retransmits += h.retransmits;
    arm.acks += h.acks;
    arm.dup_drops += h.dup_drops;
    arm.retry_exhaustions += h.retry_exhaustions;
    arm.channel_lost += h.loss_by_class.values().sum::<u64>();
    // Reactive runs never touch a plan cache, so no case ends restored
    // after a re-plan; every exhaustion outside gray links counts.
    if case.channel.overrides.is_empty() {
        arm.clear_exhaustions += h.retry_exhaustions;
    }
    failed
}

/// The set-up `run_campaign` performs before its first case: topology,
/// member draws, SMRP and SPF sessions, case generation.
fn setup_one(cfg: &CampaignConfig) {
    let graph = cfg.topology().expect("Waxman parameters are valid");
    let (source, members) = cfg.pick_group_members(&graph, 0);
    let smrp = ProtoSession::build(
        &graph,
        source,
        &members,
        TreeProtocol::Smrp(SmrpConfig::default()),
    )
    .expect("SMRP session builds on a connected topology");
    let spf = ProtoSession::build(&graph, source, &members, TreeProtocol::Spf)
        .expect("SPF session builds on a connected topology");
    black_box((
        MultiSession::from_sessions(vec![smrp]),
        MultiSession::from_sessions(vec![spf]),
    ));
    black_box(generate_mix(
        &graph,
        &cfg.generator,
        cfg.scenarios,
        cfg.base_seed,
    ));
}

/// `run_campaign(cfg, 1)` made of its public calls, each in its span.
fn traced_campaign(
    cfg: &CampaignConfig,
    tr: &mut Tracer,
    counts: &mut Counts,
    facts: &mut CampaignFacts,
) -> Result<(), String> {
    let graph = tr
        .time("net.topology", || cfg.topology())
        .map_err(|e| e.to_string())?;
    let mut smrp_sessions = Vec::new();
    let mut spf_sessions = Vec::new();
    for g in 0..cfg.groups.max(1) {
        let (source, members) = cfg.pick_group_members(&graph, g);
        let mut smrp = tr
            .time("net.spt", || {
                SmrpSession::new(&graph, source, SmrpConfig::default())
            })
            .map_err(|e| e.to_string())?;
        let mut spf = tr
            .time("net.spt", || SpfSession::new(&graph, source))
            .map_err(|e| e.to_string())?;
        counts.add("net.spt_calls", 2.0);
        for &m in &members {
            tr.time("core.smrp_join", || smrp.join(m))
                .map_err(|e| e.to_string())?;
            counts.add("core.smrp_joins", 1.0);
        }
        for &m in &members {
            tr.time("core.spf_join", || spf.join(m))
                .map_err(|e| e.to_string())?;
            counts.add("core.spf_joins", 1.0);
        }
        smrp_sessions.push(ProtoSession::from_tree(&graph, smrp.tree().clone()));
        spf_sessions.push(ProtoSession::from_tree(&graph, spf.tree().clone()));
    }
    let smrp = MultiSession::from_sessions(smrp_sessions);
    let spf = MultiSession::from_sessions(spf_sessions);
    let cases = tr.time("faultlab.generate", || {
        generate_mix(&graph, &cfg.generator, cfg.scenarios, cfg.base_seed)
    });
    facts.cases += cases.len() as u64;
    for case in &cases {
        let a = traced_arm(
            tr,
            counts,
            &smrp,
            cfg,
            case,
            ProtoKind::Smrp,
            &mut facts.smrp,
        );
        let b = traced_arm(tr, counts, &spf, cfg, case, ProtoKind::Spf, &mut facts.spf);
        facts.record_case(case, a, b);
    }
    Ok(())
}

impl Workload for CampaignMix {
    type Setup = ();
    type Facts = CampaignFacts;

    const WORK: (&'static str, &'static str) = ("sim_evals_per_s", "evals/s");

    fn setup(&self) {
        self.cfgs.iter().for_each(setup_one);
    }

    fn unit(&self, _: &(), jobs: usize) -> Unit<CampaignFacts> {
        let mut facts = CampaignFacts::default();
        let mut busy_s = 0.0;
        for cfg in &self.cfgs {
            let t = Instant::now();
            let run = run_campaign(cfg, jobs).expect("campaign topology generates");
            busy_s += t.elapsed().as_secs_f64();
            add_run(&mut facts, &run);
        }
        Unit {
            work: facts.smrp.sim_runs + facts.spf.sim_runs,
            busy_s,
            also: vec![("cases_per_s", "cases/s", facts.cases)],
            facts,
        }
    }

    fn plain_round(&self) -> CampaignFacts {
        let mut facts = CampaignFacts::default();
        for cfg in &self.cfgs {
            add_run(
                &mut facts,
                &run_campaign(cfg, 1).expect("campaign topology generates"),
            );
        }
        facts
    }

    fn traced_round(&self, tr: &mut Tracer, counts: &mut Counts) -> Result<CampaignFacts, String> {
        let mut facts = CampaignFacts::default();
        for cfg in &self.cfgs {
            traced_campaign(cfg, tr, counts, &mut facts)?;
        }
        Ok(facts)
    }

    fn verdict(&self, f: &CampaignFacts) -> Verdict {
        let mut problems = Vec::new();
        let violations = f.smrp.violations + f.spf.violations;
        if violations > 0 {
            problems.push(format!("{violations} invariant violations"));
        }
        let exhaustions = f.smrp.clear_exhaustions + f.spf.clear_exhaustions;
        if exhaustions > 0 {
            problems.push(format!("{exhaustions} clear-channel retry exhaustions"));
        }
        let mut sim = Metrics::default();
        let mut put = |name: &str, v: f64, unit: &'static str| {
            sim.push(name, v, unit)
                .expect("simulated metric names are valid");
        };
        if let Some(p) = percentile(&f.smrp.latencies_ms, 0.5) {
            put("restore_ms.p50", p.value, "ms");
            put("restore_ms.samples", p.samples as f64, "count");
        }
        match tail_percentile(&f.smrp.latencies_ms, 0.95, 10) {
            Some(p) => put("restore_ms.p95", p.value, "ms"),
            None => println!(
                "# restore_ms.p95 not reported: {} samples, 200 needed",
                f.smrp.latencies_ms.len()
            ),
        }
        if let Some(p) = percentile(&f.spf.latencies_ms, 0.5) {
            put("spf_restore_ms.p50", p.value, "ms");
            put("spf_restore_ms.samples", p.samples as f64, "count");
        }
        let cases = f.cases.max(1) as f64;
        put(
            "ctrl_msgs_per_case",
            f.smrp.ctrl.iter().sum::<u64>() as f64 / cases,
            "msgs",
        );
        put(
            "spf_ctrl_msgs_per_case",
            f.spf.ctrl.iter().sum::<u64>() as f64 / cases,
            "msgs",
        );
        put(
            "retransmits",
            (f.smrp.retransmits + f.spf.retransmits) as f64,
            "count",
        );
        put(
            "sim_evals",
            (f.smrp.sim_runs + f.spf.sim_runs) as f64,
            "count",
        );
        put("smrp_failed_evals", f.smrp.failed as f64, "count");
        put("spf_failed_evals", f.spf.failed as f64, "count");
        for (family, n) in &f.failed_by_family {
            put(&format!("failed_cases.{family}"), *n as f64, "count");
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
}
