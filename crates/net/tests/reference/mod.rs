//! Test-only reference Dijkstra: the search as it was written before the
//! shared kernel, kept as an oracle. A `BinaryHeap` of `(dist, node)`
//! structs, a `done` array, delays read from the link table, and a second
//! push on every equal-distance parent change.
//!
//! Shared with `smrp-core`'s oracle test through `#[path]`.

#![allow(dead_code)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use smrp_net::dijkstra::{Constraints, Visit};
use smrp_net::{Graph, LinkId, NodeId, Path};

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

pub fn node_ok(c: &Constraints<'_>, n: NodeId) -> bool {
    c.failures.is_none_or(|f| f.node_usable(n)) && !c.forbidden_nodes.contains(&n)
}

pub fn link_ok(c: &Constraints<'_>, g: &Graph, l: LinkId) -> bool {
    c.failures.is_none_or(|f| f.link_usable(g, l)) && !c.forbidden_links.contains(&l)
}

/// Distances and parents of a reference search.
#[derive(Debug, Clone)]
pub struct RefTree {
    pub source: NodeId,
    pub dist: Vec<f64>,
    pub parent: Vec<Option<NodeId>>,
}

impl RefTree {
    /// Walks parents back from `node` (no reachability check).
    pub fn chain(&self, node: NodeId) -> Path {
        let mut nodes = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent[cur.index()] {
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        Path::new(nodes)
    }

    pub fn path_to(&self, node: NodeId) -> Option<Path> {
        self.dist[node.index()]
            .is_finite()
            .then(|| self.chain(node))
    }
}

/// The reference loop with a per-node visit decision; returns the tree and
/// the node that stopped the search.
pub fn search(
    g: &Graph,
    source: NodeId,
    c: Constraints<'_>,
    mut visit: impl FnMut(NodeId, f64) -> Visit,
) -> (RefTree, Option<NodeId>) {
    let n = g.node_count();
    let mut t = RefTree {
        source,
        dist: vec![f64::INFINITY; n],
        parent: vec![None; n],
    };
    if !node_ok(&c, source) {
        return (t, None);
    }
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    t.dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        match visit(u, d) {
            Visit::Expand => {}
            Visit::Absorb => continue,
            Visit::Stop => return (t, Some(u)),
        }
        for &(v, l) in g.adjacency(u) {
            if done[v.index()] || !node_ok(&c, v) || !link_ok(&c, g, l) {
                continue;
            }
            let nd = d + g.link(l).delay();
            if nd < t.dist[v.index()]
                || (nd == t.dist[v.index()] && t.parent[v.index()].is_some_and(|p| u < p))
            {
                t.dist[v.index()] = nd;
                t.parent[v.index()] = Some(u);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    (t, None)
}

/// Full constrained shortest-path tree.
pub fn tree(g: &Graph, source: NodeId, c: Constraints<'_>) -> RefTree {
    search(g, source, c, |_, _| Visit::Expand).0
}

/// Point-to-point path read off a full tree.
pub fn shortest_path_constrained(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    c: Constraints<'_>,
) -> Option<Path> {
    if src == dst {
        return node_ok(&c, src).then(|| Path::trivial(src));
    }
    tree(g, src, c).path_to(dst)
}

/// Nearest target: the first settled target other than the source.
pub fn shortest_path_to_any(
    g: &Graph,
    src: NodeId,
    c: Constraints<'_>,
    mut is_target: impl FnMut(NodeId) -> bool,
) -> Option<Path> {
    if !node_ok(&c, src) {
        return None;
    }
    if is_target(src) {
        return Some(Path::trivial(src));
    }
    let visit = |u, _| {
        if u != src && is_target(u) {
            Visit::Stop
        } else {
            Visit::Expand
        }
    };
    let (t, hit) = search(g, src, c, visit);
    hit.map(|u| t.chain(u))
}
