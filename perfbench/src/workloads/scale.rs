//! `scale-40k`: SPF session build on the BENCH_scale n=40000
//! transit-stub shape, then one recoverable cut per topology.
//!
//! On each of `TOPOLOGIES` seeded topologies, `SESSIONS` 8-member SPF
//! sessions (source SPT plus joins) are built; the groups whose tree rides
//! that topology's cut are planned, audited and simulated together. The
//! timed work is the build; the work rate is sessions per second. Set-up
//! is the topologies alone. Several topologies per unit average out how
//! much one topology's shape speeds or slows its SPTs.

use std::hint::black_box;
use std::time::Instant;

use smrp_core::recovery::{self, DetourKind};
use smrp_core::SpfSession;
use smrp_faultlab::audit_recovery;
use smrp_net::{FailureScenario, Graph, LinkId, NodeId};
use smrp_proto::{
    FailureTiming, InjectionTiming, MultiSession, ProtoSession, RecoveryPlans, RecoveryStrategy,
    TreeProtocol,
};
use smrp_sim::{ChannelSpec, SimTime};

use super::{add_ctrl, count_report, sub_seed, transit_stub};
use crate::bench::{Counts, Unit, Verdict, Workload};
use crate::span::Tracer;
use crate::stats::{percentile, Metrics, Tally};

const NODES: usize = 40_000;
const TOPOLOGIES: u64 = 4;
/// Sessions per topology.
const SESSIONS: usize = 64;
const GROUP_SIZE: usize = 8;
const FAIL_AT_MS: f64 = 100.0;
const RUN_UNTIL_MS: f64 = 1500.0;

pub struct Scale40k {
    seed: u64,
}

impl Scale40k {
    pub fn new(seed: u64) -> Self {
        Scale40k { seed }
    }

    fn topology(&self, k: u64) -> Graph {
        transit_stub(NODES, sub_seed(self.seed, 0x40_0000 + k))
    }

    /// Group `g`'s source and members on topology `k`: strides through the
    /// id space from a seeded, group-dependent offset (the BENCH_scale
    /// draw, seeded).
    fn group_nodes(&self, k: u64, g: usize) -> (NodeId, Vec<NodeId>) {
        let n = NODES;
        let offset = sub_seed(self.seed, 0x41_0000 + k) as usize;
        let base = g.wrapping_mul(2_654_435_761).wrapping_add(offset) % n;
        let step = (n / (GROUP_SIZE + 1)).max(1);
        let source = NodeId::new(base);
        let mut members = Vec::with_capacity(GROUP_SIZE);
        let mut idx = base;
        while members.len() < GROUP_SIZE {
            idx = (idx + step) % n;
            let cand = NodeId::new(idx);
            if cand == source || members.contains(&cand) {
                idx += 1;
                continue;
            }
            members.push(cand);
        }
        (source, members)
    }
}

/// Whether `session`'s tree uses `link`.
fn rides(graph: &Graph, session: &ProtoSession<'_>, link: LinkId) -> bool {
    let (a, b) = graph.link(link).endpoints();
    let tree = session.tree();
    tree.parent(a) == Some(b) || tree.parent(b) == Some(a)
}

/// The first link on the path to group 0's first member whose cut every
/// fragment can detour around locally. `plan` wraps each planning call.
fn recoverable_cut(
    graph: &Graph,
    session: &ProtoSession<'_>,
    member: NodeId,
    mut plan: impl FnMut(&mut dyn FnMut() -> RecoveryPlans) -> RecoveryPlans,
) -> Option<LinkId> {
    let path = session.tree().path_from_source(member)?;
    path.links(graph).into_iter().find(|&link| {
        let p =
            plan(&mut || session.plan_recoveries(&FailureScenario::link(link), DetourKind::Local));
        !p.recoveries.is_empty() && p.cornered_roots.is_empty() && p.unrecoverable.is_empty()
    })
}

/// One topology's cut and its recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct CutFacts {
    cut: usize,
    affected_groups: u64,
    affected_members: u64,
    latencies_ms: Vec<f64>,
    violations: u64,
    retry_exhaustions: u64,
    ctrl: [u64; 4],
    msgs_delivered: u64,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct ScaleFacts {
    sessions: u64,
    build_errors: u64,
    /// Topologies on which group 0's member path had no recoverable cut.
    no_cut: u64,
    cuts: Vec<CutFacts>,
}

/// A traced round's tracer and counts; `None` in untraced runs.
type Probe<'a> = Option<(&'a mut Tracer, &'a mut Counts)>;

fn timed<T>(probe: &mut Probe<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match probe {
        Some((t, _)) => t.time(name, f),
        None => f(),
    }
}

fn count(probe: &mut Probe<'_>, name: &'static str, v: f64) {
    if let Some((_, c)) = probe {
        c.add(name, v);
    }
}

/// Plans, audits and simulates the groups riding `cut`.
fn recover_riders(
    graph: &Graph,
    riders: Vec<ProtoSession<'_>>,
    cut: LinkId,
    probe: &mut Probe<'_>,
) -> CutFacts {
    let mut facts = CutFacts {
        cut: cut.index(),
        affected_groups: riders.len() as u64,
        affected_members: 0,
        latencies_ms: Vec::new(),
        violations: 0,
        retry_exhaustions: 0,
        ctrl: [0; 4],
        msgs_delivered: 0,
    };
    let scenario = FailureScenario::link(cut);
    for s in &riders {
        let plans = timed(probe, "core.plan", || {
            s.plan_recoveries(&scenario, DetourKind::Local)
        });
        count(probe, "core.plans", 1.0);
        for r in &plans.recoveries {
            count(probe, "core.recoveries", 1.0);
            count(probe, "core.rd_ms_sum", r.recovery_distance());
        }
        let violations = timed(probe, "faultlab.audit", || {
            audit_recovery(graph, s.tree(), &scenario, &plans)
        });
        count(probe, "faultlab.audits", 1.0);
        facts.violations += violations.len() as u64;
        facts.affected_members +=
            recovery::affected_members(graph, s.tree(), &scenario).len() as u64;
    }
    let multi = MultiSession::from_sessions(riders);
    let report = timed(probe, "proto.run", || {
        multi.run_failure_spec(
            &scenario,
            RecoveryStrategy::LocalDetour,
            InjectionTiming::Once(FailureTiming::persistent(SimTime::from_ms(FAIL_AT_MS))),
            &ChannelSpec::perfect(),
            SimTime::from_ms(RUN_UNTIL_MS),
        )
    });
    if let Some((_, c)) = probe {
        count_report(c, &report);
    }
    for g in &report.groups {
        facts.latencies_ms.extend(g.latencies_ms());
        add_ctrl(&mut facts.ctrl, &g.control);
    }
    facts.retry_exhaustions = report.health.retry_exhaustions;
    facts.msgs_delivered = report.messages_delivered;
    facts
}

impl Scale40k {
    /// Builds topology `k`'s sessions on `jobs` workers and recovers the
    /// riders of its cut; returns the build's host seconds.
    fn build_and_recover(&self, k: u64, graph: &Graph, jobs: usize, facts: &mut ScaleFacts) -> f64 {
        facts.sessions += SESSIONS as u64;
        let build = |g: usize| {
            let (source, members) = self.group_nodes(k, g);
            ProtoSession::build(graph, source, &members, TreeProtocol::Spf)
        };
        let t = Instant::now();
        let first = build(0);
        let mut busy_s = t.elapsed().as_secs_f64();
        let Ok(first) = first else {
            facts.build_errors += SESSIONS as u64;
            return busy_s;
        };
        let member = self.group_nodes(k, 0).1[0];
        let Some(cut) = recoverable_cut(graph, &first, member, |f| f()) else {
            facts.no_cut += 1;
            return busy_s;
        };

        let t = Instant::now();
        let lanes: Vec<(u64, Vec<(usize, ProtoSession<'_>)>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    let build = &build;
                    scope.spawn(move || {
                        let mut errors = 0;
                        let mut riders = Vec::new();
                        for g in (1 + w..SESSIONS).step_by(jobs) {
                            match build(g) {
                                Ok(s) if rides(graph, &s, cut) => riders.push((g, s)),
                                Ok(s) => drop(black_box(s)),
                                Err(_) => errors += 1,
                            }
                        }
                        (errors, riders)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("build worker panicked"))
                .collect()
        });
        busy_s += t.elapsed().as_secs_f64();

        let mut riders = vec![(0, first)];
        for (errors, lane) in lanes {
            facts.build_errors += errors;
            riders.extend(lane);
        }
        riders.sort_by_key(|(g, _)| *g);
        let riders = riders.into_iter().map(|(_, s)| s).collect();
        facts
            .cuts
            .push(recover_riders(graph, riders, cut, &mut None));
        busy_s
    }

    /// Topology `k`'s round with spans around every call into a layer.
    fn traced_topology(
        &self,
        k: u64,
        tr: &mut Tracer,
        counts: &mut Counts,
        facts: &mut ScaleFacts,
    ) {
        let graph = tr.time("net.topology", || self.topology(k));
        facts.sessions += SESSIONS as u64;
        let mut riders = Vec::new();
        let mut cut = None;
        for g in 0..SESSIONS {
            let (source, members) = self.group_nodes(k, g);
            let spf = tr.time("net.spt", || SpfSession::new(&graph, source));
            counts.add("net.spt_calls", 1.0);
            let Ok(mut spf) = spf else {
                facts.build_errors += 1;
                continue;
            };
            let mut failed = false;
            for &m in &members {
                failed |= tr.time("core.spf_join", || spf.join(m)).is_err();
                counts.add("core.spf_joins", 1.0);
            }
            if failed {
                facts.build_errors += 1;
                continue;
            }
            let session = ProtoSession::from_tree(&graph, spf.tree().clone());
            if g == 0 {
                cut = recoverable_cut(&graph, &session, members[0], |f| {
                    counts.add("core.plans", 1.0);
                    tr.time("core.plan", f)
                });
                if cut.is_none() {
                    facts.no_cut += 1;
                    return;
                }
            }
            if cut.is_some_and(|link| rides(&graph, &session, link)) {
                riders.push(session);
            }
        }
        if let Some(link) = cut {
            let cut_facts = recover_riders(&graph, riders, link, &mut Some((tr, counts)));
            facts.cuts.push(cut_facts);
        }
    }
}

impl Workload for Scale40k {
    type Setup = Vec<Graph>;
    type Facts = ScaleFacts;

    const WORK: (&'static str, &'static str) = ("sessions_per_s", "sessions/s");

    /// The topologies alone: the session build is the measured work.
    fn setup(&self) -> Vec<Graph> {
        (0..TOPOLOGIES).map(|k| self.topology(k)).collect()
    }

    fn unit(&self, graphs: &Vec<Graph>, jobs: usize) -> Unit<ScaleFacts> {
        let mut facts = ScaleFacts::default();
        let mut busy_s = 0.0;
        for (k, graph) in (0..).zip(graphs) {
            busy_s += self.build_and_recover(k, graph, jobs, &mut facts);
        }
        Unit {
            work: facts.sessions,
            busy_s,
            also: Vec::new(),
            facts,
        }
    }

    fn plain_round(&self) -> ScaleFacts {
        let mut facts = ScaleFacts::default();
        for k in 0..TOPOLOGIES {
            self.build_and_recover(k, &self.topology(k), 1, &mut facts);
        }
        facts
    }

    fn traced_round(&self, tr: &mut Tracer, counts: &mut Counts) -> Result<ScaleFacts, String> {
        let mut facts = ScaleFacts::default();
        for k in 0..TOPOLOGIES {
            self.traced_topology(k, tr, counts, &mut facts);
        }
        Ok(facts)
    }

    fn verdict(&self, f: &ScaleFacts) -> Verdict {
        let mut problems = Vec::new();
        if f.build_errors > 0 {
            problems.push(format!("{} sessions failed to build", f.build_errors));
        }
        if f.no_cut > 0 {
            problems.push(format!(
                "{} topologies have no recoverable cut on group 0's member path",
                f.no_cut
            ));
        }
        let mut failed_cuts = 0;
        for c in &f.cuts {
            let restored = c.latencies_ms.len() as u64;
            let mut defects = Vec::new();
            if c.violations > 0 {
                defects.push(format!("{} audit violations", c.violations));
            }
            if restored != c.affected_members {
                defects.push(format!(
                    "{restored} of {} affected members restored",
                    c.affected_members
                ));
            }
            if c.retry_exhaustions > 0 {
                defects.push(format!("{} retry exhaustions", c.retry_exhaustions));
            }
            failed_cuts += u64::from(!defects.is_empty());
            problems.extend(
                defects
                    .into_iter()
                    .map(|i| format!("cut of link {}: {i}", c.cut)),
            );
        }
        let latencies: Vec<f64> = f
            .cuts
            .iter()
            .flat_map(|c| c.latencies_ms.iter().copied())
            .collect();
        let ctrl: u64 = f.cuts.iter().map(|c| c.ctrl.iter().sum::<u64>()).sum();
        let mut sim = Metrics::default();
        let mut put = |name: &str, v: f64, unit: &'static str| {
            sim.push(name, v, unit)
                .expect("simulated metric names are valid");
        };
        if let Some(p) = percentile(&latencies, 0.5) {
            put("restore_ms.p50", p.value, "ms");
            put("restore_ms.samples", p.samples as f64, "count");
        }
        put(
            "ctrl_msgs_per_case",
            ctrl as f64 / f.cuts.len().max(1) as f64,
            "msgs",
        );
        put(
            "affected_groups",
            f.cuts.iter().map(|c| c.affected_groups).sum::<u64>() as f64,
            "count",
        );
        put(
            "msgs_delivered",
            f.cuts.iter().map(|c| c.msgs_delivered).sum::<u64>() as f64,
            "count",
        );
        Verdict {
            problems,
            tally: Tally {
                attempted: f.sessions + TOPOLOGIES,
                failed: f.build_errors + f.no_cut + failed_cuts,
            },
            sim,
        }
    }
}
