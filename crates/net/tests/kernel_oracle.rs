//! The shared Dijkstra kernel against the reference search it replaced:
//! bit-identical distances, identical parents and identical paths on
//! random graphs with deliberately tied delays and random constraints.

mod reference;

use proptest::prelude::*;

use smrp_net::dijkstra::{self, Constraints, ShortestPathTree};
use smrp_net::{FailureScenario, Graph, LinkId, NodeId};

/// A random graph plus failed links, failed nodes, forbidden nodes,
/// forbidden links and a target mask, all drawn as raw indices.
type Case = (Graph, [Vec<usize>; 4], Vec<bool>);

/// Graphs whose delays come from `palette`: small integers tie often.
fn arb_case(palette: &'static [f64]) -> impl Strategy<Value = Case> {
    let idx = || proptest::collection::vec(0usize..64, 0..3);
    (
        2usize..14,
        proptest::collection::vec((0usize..14, 0usize..14, 0usize..8), 0..40),
        (idx(), idx(), idx(), idx()),
        proptest::collection::vec(0usize..4, 14..15),
    )
        .prop_map(move |(n, edges, (fl, fnode, bn, bl), mask)| {
            let mut g = Graph::with_nodes(n);
            for (a, b, w) in edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    let w = palette[w % palette.len()];
                    let _ = g.add_link(NodeId::new(a), NodeId::new(b), w);
                }
            }
            let targets = mask.iter().take(n).map(|&m| m == 0).collect();
            (g, [fl, fnode, bn, bl], targets)
        })
}

struct Restrictions {
    failures: FailureScenario,
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl Restrictions {
    fn new(g: &Graph, [fl, fnode, bn, bl]: &[Vec<usize>; 4]) -> Self {
        let links = |v: &[usize]| -> Vec<LinkId> {
            if g.link_count() == 0 {
                return Vec::new();
            }
            v.iter().map(|&i| LinkId::new(i % g.link_count())).collect()
        };
        let nodes = |v: &[usize]| -> Vec<NodeId> {
            v.iter().map(|&i| NodeId::new(i % g.node_count())).collect()
        };
        let mut failures = FailureScenario::links(links(fl));
        for n in nodes(fnode) {
            failures.fail_node(n);
        }
        Restrictions {
            failures,
            nodes: nodes(bn),
            links: links(bl),
        }
    }

    /// Unrestricted, each restriction alone, and all of them together.
    fn variants(&self) -> Vec<Constraints<'_>> {
        vec![
            Constraints::unrestricted(),
            Constraints::avoiding_failures(&self.failures),
            Constraints {
                forbidden_nodes: &self.nodes,
                ..Constraints::default()
            },
            Constraints {
                forbidden_links: &self.links,
                ..Constraints::default()
            },
            Constraints {
                failures: Some(&self.failures),
                forbidden_nodes: &self.nodes,
                forbidden_links: &self.links,
            },
        ]
    }
}

/// With `exact` every parent and path must match the reference; without it
/// (delays that round away) distances must still match bit for bit and
/// every reachable node's parent chain must lead back to the source.
fn check(case: &Case, exact: bool) -> Result<(), TestCaseError> {
    let (g, raw, targets) = case;
    let r = Restrictions::new(g, raw);
    for c in r.variants() {
        for s in g.node_ids() {
            let spt = ShortestPathTree::compute_constrained(g, s, c);
            let oracle = reference::tree(g, s, c);
            for v in g.node_ids() {
                let want = oracle.dist[v.index()];
                prop_assert_eq!(
                    spt.distance(v).map(f64::to_bits),
                    want.is_finite().then(|| want.to_bits())
                );
                let path = dijkstra::shortest_path_constrained(g, s, v, c);
                if exact {
                    prop_assert_eq!(spt.parent(v), oracle.parent[v.index()]);
                    prop_assert_eq!(path, reference::shortest_path_constrained(g, s, v, c));
                } else {
                    prop_assert_eq!(spt.path_to(v).is_some(), want.is_finite());
                    prop_assert_eq!(path.is_some(), want.is_finite());
                }
            }
            let is_target = |n: NodeId| targets[n.index()];
            let nearest = dijkstra::shortest_path_to_any(g, s, c, is_target);
            let want = reference::shortest_path_to_any(g, s, c, is_target);
            if exact {
                prop_assert_eq!(nearest, want);
            } else {
                prop_assert_eq!(nearest.map(|p| p.target()), want.map(|p| p.target()));
            }
        }
    }
    for s in g.node_ids() {
        let oracle = reference::tree(g, s, Constraints::unrestricted());
        for v in g.node_ids() {
            let want = oracle.dist[v.index()];
            prop_assert_eq!(
                dijkstra::distance(g, s, v).map(f64::to_bits),
                want.is_finite().then(|| want.to_bits())
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kernel_matches_reference_on_tied_integer_delays(case in arb_case(&[1.0, 2.0, 3.0])) {
        check(&case, true)?;
    }

    /// `1e17 + 1.0 == 1e17`: a delay lost to rounding lets a relaxation
    /// reach a node already settled at the same distance.
    #[test]
    fn kernel_stays_acyclic_when_delays_round_away(case in arb_case(&[1e17, 1.0, 2.0])) {
        check(&case, false)?;
    }
}
