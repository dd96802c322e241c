//! `churn-4k`: SMRP membership churn on the BENCH_scale n=4000
//! transit-stub shape, with no simulator.
//!
//! On each of `TOPOLOGIES` seeded topologies, `GROUPS` sessions with the
//! paper's default `SmrpConfig`. Each session joins `MEMBERS` members, then
//! runs `ROUNDS` rounds of leave, rejoin and `reshape_member` (the
//! join_churn op shape). The timed unit is every group's joins and churn,
//! groups spread over the workers; several topologies per unit average out
//! how much one topology's shape speeds or slows the candidate searches.
//! Every final tree must pass `MulticastTree::validate`, whose last check
//! recomputes SHR from its Eq. 1 definition, and the trees' digest must
//! repeat.

use std::hint::black_box;
use std::time::Instant;

use smrp_core::{ReshapeOutcome, SmrpConfig, SmrpSession};
use smrp_net::{Graph, NodeId};

use super::{sub_seed, transit_stub, SplitMix};
use crate::bench::{Counts, Unit, Verdict, Workload};
use crate::span::Tracer;
use crate::stats::{Metrics, Tally};

const NODES: usize = 4_000;
const TOPOLOGIES: u64 = 4;
/// Groups per topology.
const GROUPS: usize = 8;
const MEMBERS: usize = 16;
const ROUNDS: usize = 16;

/// One membership operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Join(NodeId),
    Leave(NodeId),
    Reshape(NodeId),
}

/// One group's source and op sequence.
struct GroupPlan {
    source: NodeId,
    ops: Vec<Op>,
}

/// One topology and the groups that churn on it.
pub struct Topology {
    graph: Graph,
    groups: Vec<GroupPlan>,
}

pub struct Churn4k {
    seed: u64,
}

impl Churn4k {
    pub fn new(seed: u64) -> Self {
        Churn4k { seed }
    }

    fn graph(&self, k: u64) -> Graph {
        transit_stub(NODES, sub_seed(self.seed, 0xC4_0000 + k))
    }

    fn groups(&self, k: u64) -> Vec<GroupPlan> {
        draw_groups(NODES, sub_seed(self.seed, 0xC5_0000 + k))
    }

    fn inputs(&self) -> Vec<Topology> {
        (0..TOPOLOGIES)
            .map(|k| Topology {
                graph: self.graph(k),
                groups: self.groups(k),
            })
            .collect()
    }
}

/// Distinct sources and members per group, then the churn rounds: leave
/// and rejoin member `a`, reshape member `b`.
fn draw_groups(n: usize, seed: u64) -> Vec<GroupPlan> {
    let mut rng = SplitMix::new(seed);
    (0..GROUPS)
        .map(|_| {
            let mut nodes: Vec<NodeId> = Vec::with_capacity(MEMBERS + 1);
            while nodes.len() <= MEMBERS {
                let v = NodeId::new(rng.below(n));
                if !nodes.contains(&v) {
                    nodes.push(v);
                }
            }
            let source = nodes[0];
            let members = &nodes[1..];
            let mut ops: Vec<Op> = members.iter().map(|&m| Op::Join(m)).collect();
            for _ in 0..ROUNDS {
                let a = members[rng.below(MEMBERS)];
                let b = members[rng.below(MEMBERS)];
                ops.extend([Op::Leave(a), Op::Join(a), Op::Reshape(b)]);
            }
            GroupPlan { source, ops }
        })
        .collect()
}

/// One group's result.
#[derive(Debug, Clone, PartialEq)]
struct GroupFacts {
    ops: u64,
    joins: u64,
    leaves: u64,
    reshapes: u64,
    switches: u64,
    errors: Vec<String>,
    invalid: Option<String>,
    digest: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ChurnFacts {
    groups: Vec<GroupFacts>,
}

/// FNV-1a over a final tree: every on-tree node with its parent,
/// membership and SHR.
fn tree_digest(session: &SmrpSession<'_>) -> u64 {
    let tree = session.tree();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for v in tree.on_tree_nodes() {
        eat(v.index() as u64);
        eat(tree.parent(v).map_or(u64::MAX, |p| p.index() as u64));
        eat(u64::from(tree.is_member(v)));
        eat(u64::from(tree.shr(v)));
    }
    h
}

/// Runs one group's ops. `span` wraps each call into the session.
fn run_ops(
    session: &mut SmrpSession<'_>,
    ops: &[Op],
    mut span: impl FnMut(&'static str, &mut dyn FnMut()),
) -> GroupFacts {
    let mut f = GroupFacts {
        ops: ops.len() as u64,
        joins: 0,
        leaves: 0,
        reshapes: 0,
        switches: 0,
        errors: Vec::new(),
        invalid: None,
        digest: 0,
    };
    for &op in ops {
        let err = match op {
            Op::Join(m) => {
                f.joins += 1;
                let mut r = Ok(());
                span("core.smrp_join", &mut || r = session.join(m).map(drop));
                r.err()
            }
            Op::Leave(m) => {
                f.leaves += 1;
                let mut r = Ok(());
                span("core.leave", &mut || r = session.leave(m));
                r.err()
            }
            Op::Reshape(m) => {
                f.reshapes += 1;
                let mut r = Ok(ReshapeOutcome::Kept);
                span("core.reshape", &mut || r = session.reshape_member(m));
                f.switches += u64::from(matches!(r, Ok(ReshapeOutcome::Switched { .. })));
                r.err()
            }
        };
        if let Some(e) = err {
            f.errors.push(format!("{op:?}: {e}"));
        }
    }
    f
}

/// Validates and digests a finished group.
fn finish(mut f: GroupFacts, session: &SmrpSession<'_>) -> GroupFacts {
    f.invalid = session.tree().validate(session.graph()).err();
    f.digest = tree_digest(session);
    f
}

fn new_session<'g>(graph: &'g Graph, source: NodeId) -> SmrpSession<'g> {
    SmrpSession::new(graph, source, SmrpConfig::default())
        .expect("the default SMRP config is valid and the source exists")
}

impl Workload for Churn4k {
    type Setup = Vec<Topology>;
    type Facts = ChurnFacts;

    const WORK: (&'static str, &'static str) = ("member_ops_per_s", "ops/s");

    /// Topologies, member and op draws, and every group's session with its
    /// source SPT.
    fn setup(&self) -> Vec<Topology> {
        let inputs = self.inputs();
        for t in &inputs {
            for g in &t.groups {
                black_box(new_session(&t.graph, g.source));
            }
        }
        inputs
    }

    fn unit(&self, inputs: &Vec<Topology>, jobs: usize) -> Unit<ChurnFacts> {
        let plans: Vec<(&Graph, &GroupPlan)> = inputs
            .iter()
            .flat_map(|t| t.groups.iter().map(move |g| (&t.graph, g)))
            .collect();
        let mut lanes: Vec<Vec<(usize, SmrpSession<'_>)>> = (0..jobs).map(|_| Vec::new()).collect();
        for (i, (graph, g)) in plans.iter().enumerate() {
            lanes[i % jobs].push((i, new_session(graph, g.source)));
        }
        let t = Instant::now();
        let done: Vec<Vec<(usize, GroupFacts, SmrpSession<'_>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|lane| {
                    let plans = &plans;
                    scope.spawn(move || {
                        lane.into_iter()
                            .map(|(i, mut s)| {
                                let f = run_ops(&mut s, &plans[i].1.ops, |_, call| call());
                                (i, f, s)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("churn worker panicked"))
                .collect()
        });
        let busy_s = t.elapsed().as_secs_f64();
        let mut groups: Vec<(usize, GroupFacts)> = done
            .into_iter()
            .flatten()
            .map(|(i, f, s)| (i, finish(f, &s)))
            .collect();
        groups.sort_by_key(|(i, _)| *i);
        let facts = ChurnFacts {
            groups: groups.into_iter().map(|(_, f)| f).collect(),
        };
        Unit {
            work: facts.groups.iter().map(|g| g.ops).sum(),
            busy_s,
            also: Vec::new(),
            facts,
        }
    }

    fn plain_round(&self) -> ChurnFacts {
        let mut groups = Vec::new();
        for t in self.inputs() {
            for g in &t.groups {
                let mut s = new_session(&t.graph, g.source);
                let f = run_ops(&mut s, &g.ops, |_, call| call());
                groups.push(finish(f, &s));
            }
        }
        ChurnFacts { groups }
    }

    fn traced_round(&self, tr: &mut Tracer, counts: &mut Counts) -> Result<ChurnFacts, String> {
        let mut groups = Vec::new();
        for k in 0..TOPOLOGIES {
            let graph = tr.time("net.topology", || self.graph(k));
            let mut finished = Vec::with_capacity(GROUPS);
            for g in &self.groups(k) {
                let mut s = tr.time("net.spt", || new_session(&graph, g.source));
                counts.add("net.spt_calls", 1.0);
                let f = run_ops(&mut s, &g.ops, |name, call| tr.time(name, call));
                counts.add("core.smrp_joins", f.joins as f64);
                counts.add("core.leaves", f.leaves as f64);
                counts.add("core.reshapes", f.reshapes as f64);
                counts.add("core.reshape_switches", f.switches as f64);
                finished.push((f, s));
            }
            // Validation is the benchmark's check, not a layer: it runs
            // outside every layer span and shows as unattributed time.
            for (f, s) in finished {
                groups.push(finish(f, &s));
            }
        }
        Ok(ChurnFacts { groups })
    }

    fn verdict(&self, f: &ChurnFacts) -> Verdict {
        let mut problems = Vec::new();
        let mut tally = Tally::default();
        let mut digest: u64 = 0;
        let (mut reshapes, mut switches) = (0, 0);
        for (i, g) in f.groups.iter().enumerate() {
            for e in &g.errors {
                problems.push(format!("group {i}: {e}"));
            }
            if let Some(e) = &g.invalid {
                problems.push(format!("group {i}: final tree fails validation: {e}"));
            }
            tally.attempted += g.ops;
            tally.failed += g.errors.len() as u64 + u64::from(g.invalid.is_some());
            digest = digest.rotate_left(7) ^ g.digest;
            reshapes += g.reshapes;
            switches += g.switches;
        }
        println!("# churn.tree_digest = {digest:#018x}");
        let mut sim = Metrics::default();
        sim.push("groups", f.groups.len() as f64, "count")
            .and_then(|()| sim.push("reshape_switches", switches as f64, "count"))
            .and_then(|()| sim.push("reshapes", reshapes as f64, "count"))
            .expect("simulated metric names are valid");
        Verdict {
            problems,
            tally,
            sim,
        }
    }
}
