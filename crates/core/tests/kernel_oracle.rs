//! SMRP's full-topology candidate search, run through the shared Dijkstra
//! kernel, against the reference search it replaced (`smrp-net`'s
//! test-only oracle): identical candidates, in the same order, on random
//! graphs with tied delays, detached fragments and excluded nodes.

#[path = "../../net/tests/reference/mod.rs"]
mod reference;

use proptest::prelude::*;

use smrp_core::select::{enumerate_candidates, JoinCandidate, SelectionMode};
use smrp_core::{MulticastTree, SmrpConfig, SmrpSession};
use smrp_net::dijkstra::{Constraints, ShortestPathTree, Visit};
use smrp_net::{Graph, NodeId};

/// The sink-constrained search as written before the shared kernel.
fn reference_candidates(
    g: &Graph,
    tree: &MulticastTree,
    nr: NodeId,
    excluded: &[NodeId],
) -> Vec<JoinCandidate> {
    if excluded.contains(&nr) {
        return Vec::new();
    }
    let mut connected = vec![false; g.node_count()];
    for u in tree.source_connected_nodes() {
        connected[u.index()] = true;
    }
    let is_sink = |u: NodeId| tree.is_on_tree(u) && connected[u.index()] && !excluded.contains(&u);
    let mut sinks = Vec::new();
    let visit = |u: NodeId, d: f64| {
        if u != nr && is_sink(u) {
            sinks.push((u, d));
            return Visit::Absorb;
        }
        if u != nr && excluded.contains(&u) {
            return Visit::Absorb;
        }
        if u != nr && tree.is_on_tree(u) && !connected[u.index()] {
            return Visit::Absorb;
        }
        Visit::Expand
    };
    let (t, _) = reference::search(g, nr, Constraints::unrestricted(), visit);
    sinks
        .into_iter()
        .map(|(u, d)| JoinCandidate {
            merger: u,
            approach: t.chain(u),
            total_delay: tree.delay_to(g, u).expect("sink is connected") + d,
            shr: tree.shr(u),
        })
        .collect()
}

/// A connected graph (a random-weight chain plus chords) with delays in
/// {1, 2, 3}, a tree of up to five joined members, an optional detached
/// fragment and an excluded set.
fn arb_case() -> impl Strategy<Value = (Graph, MulticastTree, Vec<NodeId>)> {
    (
        (
            4usize..16,
            proptest::collection::vec(1u32..4, 16..17),
            proptest::collection::vec((0usize..16, 0usize..16, 1u32..4), 0..30),
        ),
        (
            proptest::collection::vec(1usize..16, 1..6),
            0usize..16,
            proptest::collection::vec(0usize..16, 0..3),
        ),
    )
        .prop_map(|((n, chain, chords), (joins, detach, excluded))| {
            let mut g = Graph::with_nodes(n);
            for (i, &w) in chain.iter().enumerate().take(n).skip(1) {
                g.add_link(NodeId::new(i - 1), NodeId::new(i), f64::from(w))
                    .unwrap();
            }
            for (a, b, w) in chords {
                let _ = g.add_link(NodeId::new(a % n), NodeId::new(b % n), f64::from(w));
            }
            let source = NodeId::new(0);
            let mut sess = SmrpSession::new(&g, source, SmrpConfig::default()).unwrap();
            for m in joins {
                let _ = sess.join(NodeId::new(m % n));
            }
            let mut tree = sess.tree().clone();
            let on_tree: Vec<NodeId> = g
                .node_ids()
                .filter(|&u| u != source && tree.is_on_tree(u))
                .collect();
            if !on_tree.is_empty() && detach % 2 == 0 {
                let _ = tree.detach_subtree(on_tree[detach % on_tree.len()]);
            }
            let excluded = excluded.into_iter().map(|i| NodeId::new(i % n)).collect();
            (g, tree, excluded)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn full_topology_candidates_match_reference(case in arb_case()) {
        let (g, tree, excluded) = case;
        let spt = ShortestPathTree::compute(&g, tree.source());
        for nr in g.node_ids().filter(|&u| !tree.is_on_tree(u)) {
            for excluded in [&[][..], &excluded[..]] {
                prop_assert_eq!(
                    enumerate_candidates(&g, &tree, &spt, nr, SelectionMode::FullTopology, excluded),
                    reference_candidates(&g, &tree, nr, excluded)
                );
            }
        }
    }
}
