//! Wire-level campaigns over N-level recovery domains (§3.3.3
//! generalized), with aggregated member populations and a DomainLocality
//! audit.
//!
//! The analytic hierarchy engine (`smrp_proto::hierarchy::NLevelSession`)
//! attributes each link failure to its owning recovery domain and computes
//! a repair confined to that domain's subgraph. This module puts those
//! repairs on the wire: every active domain's session tree (re-exported to
//! global coordinates, population weights included) becomes one group of a
//! [`MultiSession`], the failure is injected into the shared simulator,
//! and the domain-confined restoration paths are installed verbatim as
//! recovery plans — the planner never sees topology outside the owning
//! domain (`run_failure_planned` is the seam).
//!
//! Each domain's group models that domain's data plane: its root (the real
//! source, or the domain's agent) feeds the domain's members, aggregated
//! populations and child agents. The hierarchical relay between domains is
//! the analytic layer's contract; on the wire the campaign checks the
//! properties the architecture promises per domain:
//!
//! * **DomainLocality** — every control message of a domain's session
//!   stays inside that domain's session node set. For a new-agent
//!   election the owner's corridor through the elected child (the
//!   installed plan path) is the one sanctioned extension. The audit
//!   ([`LocalityAudit`]) is a simulator observer that checks every send's
//!   typed group tag as it happens, so a single stray `Hello` across a
//!   border fails the campaign — and a case whose owner session sent
//!   nothing the audit could check is *unaudited*, which fails it too;
//! * **restoration** — every member the failure cut off regains service
//!   within the run, timed from the injection;
//! * **determinism** — reports depend only on the configuration: any
//!   `--jobs` value and either timer backend produce identical runs.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smrp_core::SmrpConfig;
use smrp_metrics::{DomainRollup, LocalityHealth, Stats};
use smrp_net::nlevel::{NLevelConfig, NLevelTopology};
use smrp_net::transit_stub::DomainId;
use smrp_net::{FailureScenario, GroupId, LinkId, NetError, NodeId};
use smrp_proto::hierarchy::{NLevelSession, WirePlan};
use smrp_proto::{
    FailureTiming, GroupMsg, InjectionTiming, MultiRouter, MultiSession, ProtoSession, RecoveryPlan,
};
use smrp_sim::{ChannelSpec, SimObserver, SimTime, TimerBackend};

use crate::par::par_map_ordered;

/// Knobs of a hierarchical campaign. Serialized into the report header;
/// job count and timer backend never enter the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Depth of the domain tree (2 = the paper's transit-stub shape).
    pub levels: u32,
    /// Nodes in the root (top transit) domain.
    pub root_nodes: usize,
    /// Child domains hung off each node of the level above.
    pub fanout: usize,
    /// Nodes per non-root domain.
    pub domain_nodes: usize,
    /// Aggregated receivers spread over the leaf domains (Eq. 2 weights);
    /// 0 disables populations.
    pub population: u64,
    /// Real members sampled per leaf domain (the source's leaf excluded).
    pub members_per_leaf: usize,
    /// Intra-domain extra-edge probability (detour richness).
    pub extra_edge_prob: f64,
    /// Probability that a non-root domain gets a redundant backup gateway
    /// (enables new-agent elections on gateway cuts).
    pub redundant_gateway_prob: f64,
    /// Number of failed-link cases to evaluate (drawn from the union of
    /// all domain-session tree links).
    pub scenarios: usize,
    /// Base RNG seed; topology, members and case sampling derive sub-seeds.
    pub base_seed: u64,
    /// When the failure is injected, in milliseconds.
    pub fail_at_ms: f64,
    /// Simulation horizon per case, in milliseconds.
    pub run_until_ms: f64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            levels: 3,
            root_nodes: 4,
            fanout: 2,
            domain_nodes: 8,
            population: 10_000,
            members_per_leaf: 2,
            extra_edge_prob: 0.45,
            redundant_gateway_prob: 0.35,
            scenarios: 48,
            base_seed: 0x5EED,
            fail_at_ms: 100.0,
            run_until_ms: 1500.0,
        }
    }
}

impl HierarchyConfig {
    /// Generates the campaign's N-level topology.
    ///
    /// # Errors
    ///
    /// Propagates generator parameter validation.
    pub fn topology(&self) -> Result<NLevelTopology, NetError> {
        let mut c = NLevelConfig::new(self.root_nodes)
            .extra_edge_prob(self.extra_edge_prob)
            .redundant_gateway_prob(self.redundant_gateway_prob)
            .population(self.population)
            .seed(self.base_seed ^ 0x9E37_79B9);
        for _ in 1..self.levels {
            c = c.level(self.fanout, self.domain_nodes);
        }
        c.generate()
    }

    /// Samples the source (first leaf domain) and the member set (a few
    /// nodes per remaining leaf), deterministically in the base seed.
    pub fn pick_members(&self, topo: &NLevelTopology) -> (NodeId, Vec<NodeId>) {
        let mut rng = SmallRng::seed_from_u64(self.base_seed.wrapping_add(0xA5A5_A5A5));
        let leaves: Vec<_> = topo.leaf_domains().collect();
        let source = leaves[0].nodes()[0];
        let mut members = Vec::new();
        for leaf in leaves.iter().skip(1) {
            let mut nodes: Vec<NodeId> = leaf.nodes().to_vec();
            nodes.shuffle(&mut rng);
            members.extend(nodes.into_iter().take(self.members_per_leaf));
        }
        if members.is_empty() && leaves[0].nodes().len() > 1 {
            // Degenerate single-leaf shapes still get one member so the
            // session is non-trivial.
            members.push(leaves[0].nodes()[1]);
        }
        (source, members)
    }
}

/// One generated failure case: a link carried by some domain's session
/// tree, attributed to its owning domain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyCase {
    /// Dense case id (report order).
    pub id: u32,
    /// The failed link.
    pub link: LinkId,
    /// The recovery domain that owns the failure.
    pub owner: DomainId,
    /// Whether the link is a gateway (border) link rather than an
    /// intra-domain one.
    pub gateway: bool,
}

/// How one hierarchy case ended, in ascending severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HierarchyOutcome {
    /// The failed link carried no session traffic.
    Unaffected,
    /// Repaired inside the owning domain; every affected member restored.
    ConfinedRepair,
    /// The primary border attachment died; a new agent was elected over a
    /// backup gateway and every affected member restored.
    EscalatedElection,
    /// No in-domain detour and no usable backup gateway exist.
    Unrepairable,
    /// A plan was installed but some member never regained service.
    DetectionMissed,
}

impl HierarchyOutcome {
    /// Stable kebab-case name (used as report keys).
    pub fn name(&self) -> &'static str {
        match self {
            HierarchyOutcome::Unaffected => "unaffected",
            HierarchyOutcome::ConfinedRepair => "confined-repair",
            HierarchyOutcome::EscalatedElection => "escalated-election",
            HierarchyOutcome::Unrepairable => "unrepairable",
            HierarchyOutcome::DetectionMissed => "detection-missed",
        }
    }
}

/// One domain's slice of a case evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSlice {
    /// The domain.
    pub domain: DomainId,
    /// Control messages this domain's lanes sent during the run.
    pub control_messages: u64,
    /// Control messages of this domain's session observed outside its
    /// sanctioned node set (must be zero).
    pub border_crossings: u64,
}

/// The evaluation of one hierarchy case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyCaseResult {
    /// The case.
    pub case: HierarchyCase,
    /// The classification.
    pub outcome: HierarchyOutcome,
    /// Real members the analytic layer attributes the outage to
    /// (conservative, per §3.3.3 reporting granularity).
    pub affected_members: u32,
    /// Receivers (members + aggregated populations) behind the outage.
    pub affected_population: u64,
    /// Members of the owner's session tree the failure actually cut off
    /// on the wire.
    pub wire_affected: u32,
    /// Wire-affected members that regained service within the run.
    pub restored: u32,
    /// Restoration latencies in milliseconds, member order.
    pub latencies_ms: Vec<f64>,
    /// New-agent elections performed.
    pub elections: u32,
    /// Domains the repair touched (0 = unaffected, 1 = confined).
    pub domains_involved: u32,
    /// Whether the DomainLocality audit checked this case: true for cases
    /// decided before the simulator, and for wire cases only when the
    /// audit saw at least one send of the owner's session. A wire case
    /// with nothing checked would pass vacuously, so it counts unaudited.
    pub audited: bool,
    /// Per-domain control spend and locality verdicts, in group order.
    pub domains: Vec<DomainSlice>,
}

/// The raw output of a hierarchy campaign, in case-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyRun {
    /// The evaluated configuration.
    pub config: HierarchyConfig,
    /// Per-case results, sorted by case id.
    pub results: Vec<HierarchyCaseResult>,
    /// Hierarchy level of each active domain, in group order.
    pub domain_levels: Vec<u32>,
    /// Total nodes in the generated topology.
    pub nodes: usize,
    /// Total receivers (real members + aggregated populations).
    pub total_population: u64,
    /// Active recovery domains (sessions actually built).
    pub active_domains: usize,
}

/// The sanctioned node set of every domain session of a campaign, in
/// group order: the ground truth of the DomainLocality audit.
#[derive(Debug)]
pub struct DomainBorders {
    /// `allowed[g][node]`: `node` is inside group `g`'s sanctioned set.
    allowed: Vec<Vec<bool>>,
}

impl DomainBorders {
    /// The session node sets of `domains` (group `g` runs `domains[g]`).
    ///
    /// # Panics
    ///
    /// Panics if a domain in `domains` runs no session.
    pub fn new(nsess: &NLevelSession, domains: &[DomainId]) -> Self {
        let nodes = nsess.topology().graph().node_count();
        let allowed = domains
            .iter()
            .map(|&d| {
                let mut bits = vec![false; nodes];
                for &n in nsess
                    .domain_session_nodes(d)
                    .expect("active domains have session nodes")
                {
                    bits[n.index()] = true;
                }
                bits
            })
            .collect();
        DomainBorders { allowed }
    }

    /// A fresh audit of one case owned by group `owner`, whose installed
    /// `plans` extend the owner's set by their corridors (a new-agent
    /// election routes the owner through the elected child domain).
    pub fn audit(&self, owner: usize, plans: &[WirePlan]) -> LocalityAudit<'_> {
        let mut owner_allowed = self.allowed[owner].clone();
        for n in plans.iter().flat_map(|p| &p.path) {
            owner_allowed[n.index()] = true;
        }
        let groups = self.allowed.len();
        LocalityAudit {
            borders: self,
            owner,
            owner_allowed,
            sends: vec![0; groups],
            crossings: vec![0; groups],
        }
    }
}

/// The streaming DomainLocality audit of one case: a simulator observer
/// that reads each send's group tag and checks both endpoints against
/// that group's sanctioned node set.
#[derive(Debug)]
pub struct LocalityAudit<'b> {
    borders: &'b DomainBorders,
    owner: usize,
    owner_allowed: Vec<bool>,
    sends: Vec<u64>,
    crossings: Vec<u64>,
}

impl LocalityAudit<'_> {
    /// Whether `node` is inside group `group`'s sanctioned set for this
    /// case.
    pub fn allows(&self, group: usize, node: NodeId) -> bool {
        let allowed = if group == self.owner {
            &self.owner_allowed
        } else {
            &self.borders.allowed[group]
        };
        allowed[node.index()]
    }

    /// Sends checked so far, per group.
    pub fn sends(&self) -> &[u64] {
        &self.sends
    }

    /// Sends with an endpoint outside their group's set, per group.
    pub fn crossings(&self) -> &[u64] {
        &self.crossings
    }

    /// Whether the audit checked anything of the owner's session. An
    /// affected case always puts owner traffic on the wire, so an audit
    /// that saw none is vacuous.
    pub fn audited(&self) -> bool {
        self.sends[self.owner] > 0
    }
}

impl SimObserver<MultiRouter> for LocalityAudit<'_> {
    fn on_send(&mut self, _time: SimTime, from: NodeId, to: NodeId, msg: &GroupMsg) {
        let g = msg.group.index();
        self.sends[g] += 1;
        if !self.allows(g, from) || !self.allows(g, to) {
            self.crossings[g] += 1;
        }
    }
}

/// Everything shared by the per-case workers.
struct Lab<'s> {
    cfg: &'s HierarchyConfig,
    nsess: &'s NLevelSession,
    multi: &'s MultiSession<'s>,
    /// Active domain ids, in group order.
    domains: &'s [DomainId],
    borders: &'s DomainBorders,
}

fn evaluate_case(lab: &Lab<'_>, case: HierarchyCase) -> HierarchyCaseResult {
    let cfg = lab.cfg;
    let scenario = FailureScenario::link(case.link);
    let empty_slices = |lab: &Lab<'_>| {
        lab.domains
            .iter()
            .map(|&d| DomainSlice {
                domain: d,
                control_messages: 0,
                border_crossings: 0,
            })
            .collect::<Vec<_>>()
    };

    let rec = match lab.nsess.recover(case.link) {
        Ok(rec) => rec,
        Err(_) => {
            // No in-domain detour and no backup gateway: the architecture
            // has no doctrine to put on the wire, so there is no run (and
            // nothing to audit).
            return HierarchyCaseResult {
                case,
                outcome: HierarchyOutcome::Unrepairable,
                affected_members: 0,
                affected_population: 0,
                wire_affected: 0,
                restored: 0,
                latencies_ms: Vec::new(),
                elections: 0,
                domains_involved: 0,
                audited: true,
                domains: empty_slices(lab),
            };
        }
    };
    if rec.domains_involved == 0 {
        return HierarchyCaseResult {
            case,
            outcome: HierarchyOutcome::Unaffected,
            affected_members: 0,
            affected_population: 0,
            wire_affected: 0,
            restored: 0,
            latencies_ms: Vec::new(),
            elections: 0,
            domains_involved: 0,
            audited: true,
            domains: empty_slices(lab),
        };
    }

    let owner_group = lab
        .domains
        .iter()
        .position(|&d| d == rec.owner)
        .expect("owner of an affecting failure runs a session");
    let plans: Vec<(GroupId, NodeId, RecoveryPlan)> = rec
        .plans
        .iter()
        .map(|p| {
            (
                GroupId::new(owner_group),
                p.member,
                RecoveryPlan {
                    path: p.path.clone(),
                    wait: SimTime::ZERO,
                    path_delay: SimTime::from_ms(p.delay_ms),
                },
            )
        })
        .collect();

    // DomainLocality audit: every sent message of group `g` must stay
    // inside `g`'s sanctioned node set, checked as the run goes.
    let mut audit = lab.borders.audit(owner_group, &rec.plans);
    let report = lab.multi.run_failure_planned(
        &scenario,
        &plans,
        InjectionTiming::Once(FailureTiming::persistent(SimTime::from_ms(cfg.fail_at_ms))),
        &ChannelSpec::perfect(),
        SimTime::from_ms(cfg.run_until_ms),
        &mut audit,
    );
    let audited = audit.audited();
    let mut crossings = audit.crossings().to_vec();
    // A failure leaking into another domain's *data plane* is a
    // confinement violation too: non-owner groups must be untouched.
    for (g, slice) in report.groups.iter().enumerate() {
        if g != owner_group && !slice.restorations.is_empty() {
            crossings[g] += slice.restorations.len() as u64;
        }
    }

    let owner_slice = &report.groups[owner_group];
    let latencies_ms = owner_slice.latencies_ms();
    let restored = latencies_ms.len() as u32;
    let wire_affected = owner_slice.restorations.len() as u32;
    let outcome = if !owner_slice.all_restored() {
        HierarchyOutcome::DetectionMissed
    } else if rec.elections.is_empty() {
        HierarchyOutcome::ConfinedRepair
    } else {
        HierarchyOutcome::EscalatedElection
    };

    let domains = lab
        .domains
        .iter()
        .enumerate()
        .map(|(g, &d)| DomainSlice {
            domain: d,
            control_messages: report.groups[g].control.total(),
            border_crossings: crossings[g],
        })
        .collect();

    HierarchyCaseResult {
        case,
        outcome,
        affected_members: rec.affected_members.len() as u32,
        affected_population: rec.affected_population,
        wire_affected,
        restored,
        latencies_ms,
        elections: rec.elections.len() as u32,
        domains_involved: rec.domains_involved as u32,
        audited,
        domains,
    }
}

/// Generates the case list: the union of every domain session's tree
/// links (in link-id order), sampled down to `scenarios` with a seeded
/// shuffle when there are more.
fn generate_cases(
    cfg: &HierarchyConfig,
    nsess: &NLevelSession,
    domains: &[DomainId],
) -> Vec<HierarchyCase> {
    let graph = nsess.topology().graph();
    let mut seen = vec![false; graph.link_count()];
    for &d in domains {
        let tree = nsess
            .domain_tree_global(d)
            .expect("active domains have trees");
        for l in tree.links(graph) {
            seen[l.index()] = true;
        }
    }
    let mut links: Vec<LinkId> = (0..seen.len())
        .filter(|&i| seen[i])
        .map(LinkId::new)
        .collect();
    if links.len() > cfg.scenarios {
        let mut rng = SmallRng::seed_from_u64(cfg.base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        links.shuffle(&mut rng);
        links.truncate(cfg.scenarios);
        links.sort_by_key(|l| l.index());
    }
    links
        .into_iter()
        .enumerate()
        .map(|(i, link)| {
            let owner = nsess.owning_domain(link);
            let l = graph.link(link);
            let gateway = nsess.topology().domain_of(l.a()) != nsess.topology().domain_of(l.b());
            HierarchyCase {
                id: i as u32,
                link,
                owner,
                gateway,
            }
        })
        .collect()
}

/// Runs a hierarchical campaign on `jobs` worker threads with the default
/// timer backend.
///
/// # Errors
///
/// Propagates topology-generation failures.
///
/// # Panics
///
/// Panics if `jobs` is zero, or if a worker thread panics (a bug in the
/// evaluator itself).
pub fn run_hierarchy(cfg: &HierarchyConfig, jobs: usize) -> Result<HierarchyRun, NetError> {
    run_hierarchy_with_backend(cfg, jobs, TimerBackend::default())
}

/// [`run_hierarchy`] with an explicit engine timer backend. Like the flat
/// campaigns, the backend is an execution detail: the wheel and the
/// reference heap must produce byte-identical runs.
///
/// # Errors
///
/// Propagates topology-generation failures.
///
/// # Panics
///
/// Panics if `jobs` is zero, or if a worker thread panics (a bug in the
/// evaluator itself).
pub fn run_hierarchy_with_backend(
    cfg: &HierarchyConfig,
    jobs: usize,
    backend: TimerBackend,
) -> Result<HierarchyRun, NetError> {
    let topo = cfg.topology()?;
    let (source, members) = cfg.pick_members(&topo);
    let nsess = NLevelSession::build(&topo, source, &members, SmrpConfig::default())
        .expect("hierarchy sessions build on generated topologies");
    let graph = nsess.topology().graph();
    let domains = nsess.active_domain_ids();

    let sessions = domains
        .iter()
        .map(|&d| {
            let tree = nsess
                .domain_tree_global(d)
                .expect("active domains have trees");
            ProtoSession::from_tree(graph, tree)
        })
        .collect();
    let borders = DomainBorders::new(&nsess, &domains);
    let mut multi = MultiSession::from_sessions(sessions);
    multi.set_timer_backend(backend);

    let cases = generate_cases(cfg, &nsess, &domains);
    let lab = Lab {
        cfg,
        nsess: &nsess,
        multi: &multi,
        domains: &domains,
        borders: &borders,
    };

    let results = par_map_ordered(cases.len(), jobs, |i| evaluate_case(&lab, cases[i]));
    let domain_levels = domains
        .iter()
        .map(|d| topo.domains()[d.index()].level())
        .collect();
    Ok(HierarchyRun {
        config: cfg.clone(),
        results,
        domain_levels,
        nodes: graph.node_count(),
        total_population: nsess.total_population(),
        active_domains: domains.len(),
    })
}

/// Restoration-latency distribution of a hierarchy campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyLatency {
    /// Restored members across all cases.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// Worst restoration.
    pub max_ms: f64,
}

impl HierarchyLatency {
    fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let mut stats = Stats::new();
        for &s in &samples {
            stats.push(s);
        }
        let q = |p: f64| -> f64 {
            if samples.is_empty() {
                return 0.0;
            }
            let idx = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[idx]
        };
        HierarchyLatency {
            count: samples.len() as u64,
            mean_ms: if samples.is_empty() {
                0.0
            } else {
                stats.mean()
            },
            p50_ms: q(0.5),
            p95_ms: q(0.95),
            max_ms: samples.last().copied().unwrap_or(0.0),
        }
    }
}

/// The stable JSON report of a hierarchy campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyReport {
    /// The evaluated configuration.
    pub config: HierarchyConfig,
    /// Topology size.
    pub nodes: usize,
    /// Total receivers served (real members + aggregated populations).
    pub total_population: u64,
    /// Active recovery domains.
    pub active_domains: usize,
    /// Cases evaluated.
    pub cases: u32,
    /// Outcome histogram, keyed by stable outcome name.
    pub outcomes: BTreeMap<String, u32>,
    /// Campaign-level DomainLocality verdict.
    pub locality: LocalityHealth,
    /// Per-domain rollups, in group order.
    pub domains: Vec<DomainRollup>,
    /// Restoration-latency distribution across every restored member.
    pub restoration: HierarchyLatency,
    /// New-agent elections across the campaign.
    pub elections: u64,
}

impl HierarchyReport {
    /// Builds the report from a run.
    pub fn from_run(run: &HierarchyRun) -> Self {
        let mut outcomes: BTreeMap<String, u32> = BTreeMap::new();
        let mut locality = LocalityHealth::default();
        let mut domains: Vec<DomainRollup> = Vec::new();
        let mut latencies = Vec::new();
        let mut elections = 0u64;
        for r in &run.results {
            *outcomes.entry(r.outcome.name().to_string()).or_insert(0) += 1;
            locality.cases_audited += u64::from(r.audited);
            locality.cases_unaudited += u64::from(!r.audited);
            elections += u64::from(r.elections);
            latencies.extend(r.latencies_ms.iter().copied());
            for s in &r.domains {
                locality.border_crossings += s.border_crossings;
            }
        }
        // Per-domain rollups keyed by group order of the first result (all
        // results share the group order).
        if let Some(first) = run.results.first() {
            for (i, s) in first.domains.iter().enumerate() {
                domains.push(DomainRollup::new(
                    s.domain.index() as u32,
                    run.domain_levels[i],
                ));
            }
        }
        for r in &run.results {
            for (i, s) in r.domains.iter().enumerate() {
                domains[i].control_messages += s.control_messages;
                domains[i].border_crossings += s.border_crossings;
            }
            if let Some(d) = domains
                .iter_mut()
                .find(|d| d.domain == r.case.owner.index() as u32)
            {
                match r.outcome {
                    HierarchyOutcome::Unaffected => {}
                    HierarchyOutcome::Unrepairable => {
                        d.cases_owned += 1;
                        d.unrepairable += 1;
                    }
                    _ => {
                        d.cases_owned += 1;
                        d.affected_members += u64::from(r.affected_members);
                        d.affected_population += r.affected_population;
                        d.restored_members += u64::from(r.restored);
                        d.elections += u64::from(r.elections);
                    }
                }
            }
        }
        HierarchyReport {
            config: run.config.clone(),
            nodes: run.nodes,
            total_population: run.total_population,
            active_domains: run.active_domains,
            cases: run.results.len() as u32,
            outcomes,
            locality,
            domains,
            restoration: HierarchyLatency::from_samples(latencies),
            elections,
        }
    }

    /// Whether the campaign is clean: zero border crossings, every case
    /// audited, and no member left unrestored where doctrine applied.
    pub fn is_clean(&self) -> bool {
        self.locality.is_clean() && self.outcomes.get("detection-missed").copied().unwrap_or(0) == 0
    }

    /// One-paragraph terminal synopsis.
    pub fn synopsis(&self) -> String {
        let mut s = format!(
            "hierarchy: levels={} nodes={} domains={} population={} cases={}\n",
            self.config.levels, self.nodes, self.active_domains, self.total_population, self.cases,
        );
        for (k, v) in &self.outcomes {
            s.push_str(&format!("  {k}: {v}\n"));
        }
        s.push_str(&format!(
            "  restoration: n={} mean={:.2}ms p95={:.2}ms | elections={} | border crossings={} ({} unaudited)\n",
            self.restoration.count,
            self.restoration.mean_ms,
            self.restoration.p95_ms,
            self.elections,
            self.locality.border_crossings,
            self.locality.cases_unaudited,
        ));
        s
    }

    /// Serializes the report as stable pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("hierarchy report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HierarchyConfig {
        HierarchyConfig {
            levels: 3,
            root_nodes: 3,
            fanout: 2,
            domain_nodes: 6,
            population: 5_000,
            scenarios: 18,
            base_seed: 42,
            run_until_ms: 1200.0,
            ..HierarchyConfig::default()
        }
    }

    #[test]
    fn hierarchy_campaign_is_confined_and_restores() {
        let run = run_hierarchy(&small(), 2).unwrap();
        let report = HierarchyReport::from_run(&run);
        assert_eq!(report.cases as usize, run.results.len());
        assert!(report.cases > 0);
        assert!(
            report.is_clean(),
            "locality or restoration failed:\n{}",
            report.synopsis()
        );
        // The campaign exercised actual repairs, not just unaffected links.
        let repaired = report.outcomes.get("confined-repair").copied().unwrap_or(0)
            + report
                .outcomes
                .get("escalated-election")
                .copied()
                .unwrap_or(0);
        assert!(repaired > 0, "no repairs exercised:\n{}", report.synopsis());
        assert!(report.restoration.count > 0);
        assert!(report.total_population >= 5_000);
    }

    #[test]
    fn jobs_do_not_change_results() {
        let cfg = small();
        let a = run_hierarchy(&cfg, 1).unwrap();
        let b = run_hierarchy(&cfg, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn timer_backends_agree() {
        let cfg = small();
        let a = run_hierarchy_with_backend(&cfg, 2, TimerBackend::Wheel).unwrap();
        let b = run_hierarchy_with_backend(&cfg, 2, TimerBackend::ReferenceHeap).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn two_level_config_matches_transit_stub_shape() {
        let cfg = HierarchyConfig {
            levels: 2,
            scenarios: 12,
            population: 0,
            ..small()
        };
        let run = run_hierarchy(&cfg, 2).unwrap();
        let report = HierarchyReport::from_run(&run);
        assert!(report.is_clean(), "{}", report.synopsis());
        assert_eq!(report.config.levels, 2);
    }

    /// Two groups on nodes 0..4: group 0 owns {0, 1}, group 1 owns {2, 3}.
    fn two_borders() -> DomainBorders {
        DomainBorders {
            allowed: vec![
                vec![true, true, false, false],
                vec![false, false, true, true],
            ],
        }
    }

    fn hello(group: usize) -> GroupMsg {
        GroupMsg {
            group: GroupId::new(group),
            inner: smrp_proto::ProtoMsg::Hello,
        }
    }

    #[test]
    fn audit_counts_a_cross_border_send() {
        let borders = two_borders();
        let mut audit = borders.audit(0, &[]);
        let (t, n) = (SimTime::ZERO, NodeId::new);
        audit.on_send(t, n(0), n(1), &hello(0));
        audit.on_send(t, n(2), n(3), &hello(1));
        audit.on_send(t, n(1), n(2), &hello(1));
        assert_eq!(audit.sends(), &[1, 2]);
        assert_eq!(audit.crossings(), &[0, 1]);
        assert!(audit.audited());
    }

    #[test]
    fn plan_corridors_extend_only_the_owner() {
        let borders = two_borders();
        let plan = WirePlan {
            member: NodeId::new(1),
            path: vec![NodeId::new(1), NodeId::new(2)],
            delay_ms: 1.0,
        };
        let mut audit = borders.audit(0, &[plan]);
        let (t, n) = (SimTime::ZERO, NodeId::new);
        audit.on_send(t, n(1), n(2), &hello(0));
        audit.on_send(t, n(1), n(2), &hello(1));
        assert_eq!(audit.crossings(), &[0, 1]);
    }

    #[test]
    fn an_audit_fed_nothing_leaves_the_case_unaudited() {
        let borders = two_borders();
        let mut audit = borders.audit(1, &[]);
        assert!(!audit.audited());
        // Other groups' traffic does not audit the owner's session.
        audit.on_send(SimTime::ZERO, NodeId::new(0), NodeId::new(1), &hello(0));
        assert!(!audit.audited());

        // An unaudited case keeps the campaign from being clean.
        let run = run_hierarchy(&small(), 1).unwrap();
        assert!(HierarchyReport::from_run(&run).is_clean());
        let mut broken = run.clone();
        let wire = broken
            .results
            .iter_mut()
            .find(|r| r.restored > 0)
            .expect("the campaign puts repairs on the wire");
        wire.audited = audit.audited();
        let report = HierarchyReport::from_run(&broken);
        assert_eq!(report.locality.cases_unaudited, 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn gateway_cases_are_attributed_to_the_parent_side() {
        let cfg = small();
        let run = run_hierarchy(&cfg, 2).unwrap();
        let topo = cfg.topology().unwrap();
        for r in &run.results {
            if r.case.gateway {
                // A gateway link is owned by the shallower (parent-side)
                // domain, never the child.
                let l = topo.graph().link(r.case.link);
                let da = topo.domain_of(l.a());
                let db = topo.domain_of(l.b());
                let owner_level = topo.domains()[r.case.owner.index()].level();
                let other = if r.case.owner == da { db } else { da };
                assert!(owner_level <= topo.domains()[other.index()].level());
            }
        }
    }
}
