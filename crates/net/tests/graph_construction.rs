//! The two ways to build a [`Graph`] agree: every generator's bulk-built
//! CSR equals the graph obtained by replaying its links through
//! [`Graph::add_link_weighted`] in link-id order, and `add_link` on a
//! bulk-built graph keeps its checks and appends the new arc last.

use smrp_net::import::{abilene, geant, parse_edge_list};
use smrp_net::nlevel::NLevelConfig;
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::waxman::WaxmanConfig;
use smrp_net::{Graph, LinkWeights, NetError, NodeId};

/// Replays `g`'s nodes and links one call at a time.
fn replay(g: &Graph) -> Graph {
    let mut h = Graph::new();
    for n in g.node_ids() {
        match g.position(n) {
            Some(p) => h.add_node_at(p),
            None => h.add_node(),
        };
    }
    for l in g.link_ids() {
        let link = g.link(l);
        let weights = LinkWeights {
            delay: link.delay(),
            cost: link.cost(),
        };
        let id = h.add_link_weighted(link.a(), link.b(), weights).unwrap();
        assert_eq!(id, l);
    }
    h
}

fn assert_same(g: &Graph, h: &Graph) {
    assert_eq!(g.node_count(), h.node_count());
    assert_eq!(g.link_count(), h.link_count());
    for l in g.link_ids() {
        assert_eq!(g.link(l), h.link(l), "link {l}");
    }
    for n in g.node_ids() {
        assert_eq!(g.adjacency(n), h.adjacency(n), "adjacency of {n}");
        assert_eq!(g.position(n), h.position(n), "position of {n}");
    }
    assert_eq!(g, h);
}

fn transit_stub(transit: usize, stubs: usize, stub_nodes: usize) -> Graph {
    TransitStubConfig::new()
        .transit_nodes(transit)
        .stubs_per_transit_node(stubs)
        .stub_nodes(stub_nodes)
        .seed(7)
        .generate()
        .unwrap()
        .into_graph()
}

fn samples() -> Vec<(&'static str, Graph)> {
    let waxman = WaxmanConfig::new(80)
        .alpha(0.25)
        .seed(3)
        .generate()
        .unwrap();
    // A sparse Waxman sample that needs patching exercises `add_link` on a
    // bulk-built graph inside the generator.
    let patched = WaxmanConfig::new(60)
        .alpha(0.02)
        .max_attempts(1)
        .seed(5)
        .generate()
        .unwrap();
    assert!(!patched.patch_links().is_empty());
    let nlevel = NLevelConfig::new(4)
        .level(2, 3)
        .level(2, 4)
        .redundant_gateway_prob(0.5)
        .seed(11)
        .generate()
        .unwrap();
    let sub_nodes: Vec<NodeId> = waxman.graph().node_ids().rev().step_by(2).collect();
    let (sub, _) = waxman.graph().induced_subgraph(&sub_nodes);
    vec![
        ("transit-stub small", transit_stub(8, 7, 7)),
        ("transit-stub n=4000", transit_stub(40, 9, 11)),
        ("waxman", waxman.into_graph()),
        ("waxman patched", patched.into_graph()),
        ("n-level", nlevel.graph().clone()),
        ("abilene", abilene()),
        ("geant", geant()),
        (
            "edge list",
            parse_edge_list("0 3 1.5\n3 1 2\n1 0 4 7\n5 2 1\n").unwrap(),
        ),
        ("induced subgraph", sub),
    ]
}

#[test]
fn bulk_built_graphs_equal_their_add_link_replay() {
    for (name, g) in samples() {
        assert!(g.link_count() > 0, "{name}");
        assert_same(&g, &replay(&g));
    }
}

#[test]
fn add_link_on_a_bulk_built_graph_keeps_its_checks() {
    let mut g = transit_stub(8, 7, 7);
    let (a, b) = g.link(g.link_ids().next().unwrap()).endpoints();
    assert!(matches!(
        g.add_link(b, a, 1.0),
        Err(NetError::DuplicateLink(_, _))
    ));
    assert_eq!(g.add_link(a, a, 1.0), Err(NetError::SelfLoop(a)));
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            g.add_link(a, b, bad),
            Err(NetError::InvalidWeight(_))
        ));
    }
    let ghost = NodeId::new(g.node_count());
    assert_eq!(g.add_link(a, ghost, 1.0), Err(NetError::UnknownNode(ghost)));
    assert_same(&g, &replay(&g));
}

#[test]
fn add_link_appends_the_arc_last_at_both_ends() {
    let mut g = transit_stub(8, 7, 7);
    let before = g.clone();
    let u = NodeId::new(0);
    let v = g
        .node_ids()
        .rev()
        .find(|&v| v != u && g.link_between(u, v).is_none())
        .unwrap();
    let l = g.add_link(v, u, 2.5).unwrap();
    assert_eq!(l.index(), before.link_count());
    for n in g.node_ids() {
        let old = before.adjacency(n);
        let new = g.adjacency(n);
        if n == u || n == v {
            let other = if n == u { v } else { u };
            assert_eq!(&new[..old.len()], old);
            assert_eq!(new[old.len()..], [(other, l)]);
        } else {
            assert_eq!(new, old);
        }
    }
    // And it matches a bulk build that includes the new link.
    let all: Vec<NodeId> = g.node_ids().collect();
    assert_same(&g, &g.induced_subgraph(&all).0);
}

#[test]
fn edge_list_import_still_rejects_duplicates_first_come() {
    assert!(matches!(
        parse_edge_list("0 1 1\n1 0 2\n"),
        Err(NetError::DuplicateLink(_, _))
    ));
    // A bad weight on a line before the duplicate is reported first.
    assert!(matches!(
        parse_edge_list("0 1 1\n1 2 0\n1 0 2\n"),
        Err(NetError::InvalidWeight(_))
    ));
    assert!(matches!(
        parse_edge_list("2 2 1\n"),
        Err(NetError::SelfLoop(_))
    ));
}

#[test]
fn graph_json_rebuilds_the_csr_and_rejects_duplicates() {
    let g = transit_stub(8, 7, 7);
    let back: Graph = serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
    assert_same(&g, &back);
    let dup = r#"{"positions":[null,null],"links":[
        {"a":0,"b":1,"weights":{"delay":1.0,"cost":1.0}},
        {"a":0,"b":1,"weights":{"delay":2.0,"cost":2.0}}]}"#;
    assert!(serde_json::from_str::<Graph>(dup).is_err());
}
