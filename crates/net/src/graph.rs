//! The undirected weighted graph at the heart of the substrate.
//!
//! Nodes and links live in arenas and are addressed through [`NodeId`] and
//! [`LinkId`]. Each link carries two weights, mirroring the paper's
//! evaluation metrics:
//!
//! * **delay** — used for path lengths, end-to-end delay `D_{S,R}` and the
//!   recovery distance `RD_R`;
//! * **cost** — summed over tree links to produce the tree cost `Cost_T`.
//!
//! The paper's figures annotate links with a single number acting as both,
//! so generators default to `cost == delay`, but the two are kept separate so
//! unit-cost experiments ("tree cost as link count") remain expressible.

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::geometry::Point;
use crate::ids::{LinkId, NodeId};

/// Weights attached to a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkWeights {
    /// Propagation delay of the link (the paper's per-link number).
    pub delay: f64,
    /// Cost of including the link in a multicast tree.
    pub cost: f64,
}

impl LinkWeights {
    /// Creates weights with identical delay and cost, the paper's default.
    #[inline]
    pub fn symmetric(value: f64) -> Self {
        LinkWeights {
            delay: value,
            cost: value,
        }
    }
}

/// An undirected link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    a: NodeId,
    b: NodeId,
    weights: LinkWeights,
}

impl Link {
    /// One endpoint of the link (the lower node id).
    #[inline]
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// The other endpoint of the link (the higher node id).
    #[inline]
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// Both endpoints as a pair `(a, b)` with `a < b`.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// Propagation delay of the link.
    #[inline]
    pub fn delay(&self) -> f64 {
        self.weights.delay
    }

    /// Tree-cost contribution of the link.
    #[inline]
    pub fn cost(&self) -> f64 {
        self.weights.cost
    }

    /// Given one endpoint, returns the opposite endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of this link.
    #[inline]
    pub fn opposite(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("node {node} is not an endpoint of this link");
        }
    }

    /// Whether `node` is one of the two endpoints.
    #[inline]
    pub fn touches(&self, node: NodeId) -> bool {
        node == self.a || node == self.b
    }
}

/// An undirected weighted graph.
///
/// Construction is additive only: experiments never remove nodes or links
/// from a topology; persistent failures are expressed with a
/// [`crate::FailureScenario`] mask layered on top instead, so that one graph
/// can be shared by many failure cases.
///
/// Adjacency is stored in compressed sparse row (CSR) form: node `u`'s arcs
/// are `arcs[first[u]..first[u + 1]]`, each arc's delay sits beside it in
/// `delay`, and within a node the arcs are in link-id order. That order is
/// a contract (see [`Graph::adjacency`]). Generators build the CSR once
/// through a crate-private builder; [`Graph::add_link`] inserts into it
/// in place.
///
/// # Example
///
/// ```
/// use smrp_net::Graph;
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let l = g.add_link(a, b, 2.5)?;
/// assert_eq!(g.link(l).opposite(a), b);
/// assert_eq!(g.degree(a), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    positions: Vec<Option<Point>>,
    links: Vec<Link>,
    /// CSR offsets, `node_count() + 1` entries.
    first: Vec<u32>,
    /// `(neighbor, link)` per arc; every link appears once per endpoint.
    arcs: Vec<(NodeId, LinkId)>,
    /// Delay of each arc's link, parallel to `arcs`.
    delay: Vec<f64>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::from_parts(Vec::new(), Vec::new())
    }
}

/// Checks a new link's endpoints and weights against a graph of
/// `node_count` nodes; duplicates are the caller's concern.
fn checked_link(
    node_count: usize,
    a: NodeId,
    b: NodeId,
    weights: LinkWeights,
) -> Result<Link, NetError> {
    for n in [a, b] {
        if n.index() >= node_count {
            return Err(NetError::UnknownNode(n));
        }
    }
    if a == b {
        return Err(NetError::SelfLoop(a));
    }
    for w in [weights.delay, weights.cost] {
        if !w.is_finite() || w <= 0.0 {
            return Err(NetError::InvalidWeight(w));
        }
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    Ok(Link {
        a: lo,
        b: hi,
        weights,
    })
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes and no positions.
    pub fn with_nodes(n: usize) -> Self {
        GraphBuilder::with_nodes(n).build()
    }

    /// Builds the CSR over `links` in one counting-sort pass: arcs land in
    /// link-id order within each node, exactly where [`Graph::add_link`]
    /// would have appended them.
    fn from_parts(positions: Vec<Option<Point>>, links: Vec<Link>) -> Graph {
        let n = positions.len();
        assert!(
            2 * links.len() <= u32::MAX as usize,
            "arc count exceeds the CSR's u32 offsets"
        );
        // Degrees, then their exclusive prefix sums: each node's start.
        let mut first = vec![0u32; n + 1];
        for l in &links {
            first[l.a.index()] += 1;
            first[l.b.index()] += 1;
        }
        let mut start = 0;
        for f in &mut first[..n] {
            (*f, start) = (start, start + *f);
        }
        // Each node's offset doubles as its write cursor, which leaves it
        // at the next node's start; shifting by one restores the starts.
        let mut arcs = vec![(NodeId::new(0), LinkId::new(0)); 2 * links.len()];
        let mut delay = vec![0.0; 2 * links.len()];
        for (i, l) in links.iter().enumerate() {
            for (u, v) in [(l.a, l.b), (l.b, l.a)] {
                let slot = &mut first[u.index()];
                arcs[*slot as usize] = (v, LinkId::new(i));
                delay[*slot as usize] = l.weights.delay;
                *slot += 1;
            }
        }
        first.copy_within(0..n, 1);
        first[0] = 0;
        Graph {
            positions,
            links,
            first,
            arcs,
            delay,
        }
    }

    /// The first node pair joined by more than one link, scanning nodes in
    /// id order; `None` for a simple graph. `O(V + E)`.
    fn first_duplicate(&self) -> Option<(NodeId, NodeId)> {
        let mut seen = vec![u32::MAX; self.node_count()];
        for u in self.node_ids() {
            for &(v, _) in self.adjacency(u) {
                if seen[v.index()] == u.index() as u32 {
                    return Some((u, v));
                }
                seen[v.index()] = u.index() as u32;
            }
        }
        None
    }

    /// Adds a node without a plane position and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.positions.len());
        self.positions.push(None);
        self.first.push(self.arcs.len() as u32);
        id
    }

    /// Adds a node placed at `position` and returns its id.
    pub fn add_node_at(&mut self, position: Point) -> NodeId {
        let id = self.add_node();
        self.positions[id.index()] = Some(position);
        id
    }

    /// Adds an undirected link with symmetric delay/cost `weight`.
    ///
    /// The new arc goes last in each endpoint's adjacency slice. This costs
    /// `O(V + E)` per call, so it suits hand-built graphs; the generators
    /// build their graphs in bulk.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown, the endpoints are
    /// equal (self-loop), a link between them already exists, or the weight
    /// is not finite and positive.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, weight: f64) -> Result<LinkId, NetError> {
        self.add_link_weighted(a, b, LinkWeights::symmetric(weight))
    }

    /// Adds an undirected link with explicit delay and cost.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::add_link`].
    pub fn add_link_weighted(
        &mut self,
        a: NodeId,
        b: NodeId,
        weights: LinkWeights,
    ) -> Result<LinkId, NetError> {
        let link = checked_link(self.node_count(), a, b, weights)?;
        if self.link_between(a, b).is_some() {
            return Err(NetError::DuplicateLink(a, b));
        }
        let id = LinkId::new(self.links.len());
        self.links.push(link);
        self.insert_arc(a, b, id, weights.delay);
        self.insert_arc(b, a, id, weights.delay);
        Ok(id)
    }

    /// Appends the arc `u → v` at the end of `u`'s slice.
    fn insert_arc(&mut self, u: NodeId, v: NodeId, link: LinkId, delay: f64) {
        let at = self.first[u.index() + 1] as usize;
        self.arcs.insert(at, (v, link));
        self.delay.insert(at, delay);
        for f in &mut self.first[u.index() + 1..] {
            *f += 1;
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Whether the graph contains `node`.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.positions.len()
    }

    /// Iterator over all node ids in index order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.positions.len()).map(NodeId::new)
    }

    /// Iterator over all link ids in index order.
    pub fn link_ids(&self) -> impl DoubleEndedIterator<Item = LinkId> + ExactSizeIterator {
        (0..self.links.len()).map(LinkId::new)
    }

    /// Returns the link record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Plane position of `node`, if it was placed with
    /// [`Graph::add_node_at`].
    #[inline]
    pub fn position(&self, node: NodeId) -> Option<Point> {
        self.positions[node.index()]
    }

    #[inline]
    fn arc_range(&self, node: NodeId) -> std::ops::Range<usize> {
        self.first[node.index()] as usize..self.first[node.index() + 1] as usize
    }

    /// Adjacency list of `node` as `(neighbor, link)` pairs in link-id
    /// (that is, insertion) order.
    #[inline]
    pub fn adjacency(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.arcs[self.arc_range(node)]
    }

    /// [`Graph::adjacency`] plus each arc's link delay, index for index.
    #[inline]
    pub(crate) fn arcs_with_delay(&self, node: NodeId) -> (&[(NodeId, LinkId)], &[f64]) {
        let r = self.arc_range(node);
        (&self.arcs[r.clone()], &self.delay[r])
    }

    /// Iterator over the neighbors of `node`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency(node).iter().map(|&(n, _)| n)
    }

    /// Degree (number of incident links) of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.arc_range(node).len()
    }

    /// The link connecting `a` and `b`, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        if !self.contains_node(a) || !self.contains_node(b) {
            return None;
        }
        // Scan the smaller adjacency list.
        let (probe, target) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adjacency(probe)
            .iter()
            .find(|&&(n, _)| n == target)
            .map(|&(_, l)| l)
    }

    /// Delay of the link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownLink`] if no such link exists (reported
    /// with a placeholder id since no id exists).
    pub fn delay_between(&self, a: NodeId, b: NodeId) -> Result<f64, NetError> {
        self.link_between(a, b)
            .map(|l| self.link(l).delay())
            .ok_or(NetError::UnknownLink(LinkId::new(usize::MAX >> 8)))
    }

    /// Average node degree `2·|E| / |V|`.
    ///
    /// Figure 9 of the paper annotates each `α` value with this quantity.
    pub fn average_degree(&self) -> f64 {
        if self.positions.is_empty() {
            return 0.0;
        }
        2.0 * self.links.len() as f64 / self.positions.len() as f64
    }

    /// Sum of link delays over the whole graph (diagnostic).
    pub fn total_delay(&self) -> f64 {
        self.links.iter().map(Link::delay).sum()
    }

    /// Extracts the subgraph induced by `nodes`, preserving positions and
    /// weights.
    ///
    /// Returns the new graph plus the mapping from new node ids to the
    /// original ids (`mapping[new.index()] == old`). Nodes are renumbered
    /// densely in the order given; duplicate entries are ignored after the
    /// first occurrence.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut mapping = Vec::with_capacity(nodes.len());
        let mut old_to_new: Vec<Option<NodeId>> = vec![None; self.node_count()];
        for &old in nodes {
            if old_to_new[old.index()].is_none() {
                old_to_new[old.index()] = Some(NodeId::new(mapping.len()));
                mapping.push(old);
            }
        }
        let positions = mapping.iter().map(|&old| self.position(old)).collect();
        // Found through the chosen nodes' adjacency (each link from its
        // lower endpoint) rather than a scan of the whole link table, so the
        // cost follows the subgraph: hierarchies cut one per domain. Sorting
        // restores link-id order.
        let mut ids: Vec<LinkId> = mapping
            .iter()
            .flat_map(|&u| {
                self.adjacency(u)
                    .iter()
                    .filter(move |&&(v, _)| u < v)
                    .map(|&(v, l)| (v, l))
            })
            .filter(|&(v, _)| old_to_new[v.index()].is_some())
            .map(|(_, l)| l)
            .collect();
        ids.sort_unstable();
        let links = ids
            .into_iter()
            .map(|id| {
                let l = self.links[id.index()];
                let (a, b) = (old_to_new[l.a.index()], old_to_new[l.b.index()]);
                let (a, b) = (a.expect("chosen"), b.expect("chosen"));
                let (a, b) = if a < b { (a, b) } else { (b, a) };
                Link { a, b, ..l }
            })
            .collect();
        (Graph::from_parts(positions, links), mapping)
    }
}

/// Serialized as the node positions and the link table; the CSR is
/// rebuilt on load.
impl Serialize for Graph {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("positions".to_string(), self.positions.serialize()),
            ("links".to_string(), self.links.serialize()),
        ])
    }
}

impl Deserialize for Graph {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let positions = Vec::<Option<Point>>::deserialize(serde::field(value, "positions")?)?;
        let links = Vec::<Link>::deserialize(serde::field(value, "links")?)?;
        let mut builder = GraphBuilder {
            positions,
            links: Vec::with_capacity(links.len()),
        };
        for l in links {
            builder
                .add_link_weighted(l.a, l.b, l.weights)
                .map_err(|e| serde::Error::custom(e.to_string()))?;
        }
        // Not `build`, whose duplicate check is a debug assertion: here a
        // duplicate is bad input, not a bug.
        let g = Graph::from_parts(builder.positions, builder.links);
        match g.first_duplicate() {
            Some((a, b)) => Err(serde::Error::custom(
                NetError::DuplicateLink(a, b).to_string(),
            )),
            None => Ok(g),
        }
    }
}

/// Bulk construction for generators: nodes and links are appended to the
/// final tables and [`GraphBuilder::build`] lays out the adjacency once.
///
/// The builder checks endpoints, self-loops and weights like
/// [`Graph::add_link`], but not duplicates: the caller promises that every
/// node pair is linked at most once (generators know this from their own
/// structure). Link ids are assigned in insertion order, and the built
/// graph equals the one obtained by replaying the same calls on a
/// [`Graph`].
#[derive(Debug, Clone, Default)]
pub(crate) struct GraphBuilder {
    positions: Vec<Option<Point>>,
    links: Vec<Link>,
}

impl GraphBuilder {
    /// Starts an empty graph.
    pub(crate) fn new() -> Self {
        GraphBuilder::default()
    }

    /// Starts a graph with `n` isolated nodes and no positions.
    pub(crate) fn with_nodes(n: usize) -> Self {
        GraphBuilder {
            positions: vec![None; n],
            links: Vec::new(),
        }
    }

    /// Adds a node without a plane position and returns its id.
    pub(crate) fn add_node(&mut self) -> NodeId {
        self.positions.push(None);
        NodeId::new(self.positions.len() - 1)
    }

    /// Adds a node placed at `position` and returns its id.
    pub(crate) fn add_node_at(&mut self, position: Point) -> NodeId {
        self.positions.push(Some(position));
        NodeId::new(self.positions.len() - 1)
    }

    /// Number of nodes added so far.
    pub(crate) fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Appends a link with symmetric delay/cost `weight`.
    ///
    /// # Errors
    ///
    /// Unknown endpoints, self-loops and bad weights, as for
    /// [`Graph::add_link`]. Duplicates are not detected.
    pub(crate) fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        weight: f64,
    ) -> Result<LinkId, NetError> {
        self.add_link_weighted(a, b, LinkWeights::symmetric(weight))
    }

    /// Appends a link with explicit delay and cost.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_link`].
    pub(crate) fn add_link_weighted(
        &mut self,
        a: NodeId,
        b: NodeId,
        weights: LinkWeights,
    ) -> Result<LinkId, NetError> {
        self.links
            .push(checked_link(self.positions.len(), a, b, weights)?);
        Ok(LinkId::new(self.links.len() - 1))
    }

    /// Lays out the adjacency and returns the graph. `O(V + E)`.
    pub(crate) fn build(self) -> Graph {
        let g = Graph::from_parts(self.positions, self.links);
        debug_assert_eq!(g.first_duplicate(), None, "builder links must be unique");
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [NodeId; 3], [LinkId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let ab = g.add_link(a, b, 1.0).unwrap();
        let bc = g.add_link(b, c, 2.0).unwrap();
        let ca = g.add_link(c, a, 3.0).unwrap();
        (g, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn counts_and_ids_are_dense() {
        let (g, nodes, links) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 3);
        assert_eq!(g.node_ids().collect::<Vec<_>>(), nodes.to_vec());
        assert_eq!(g.link_ids().collect::<Vec<_>>(), links.to_vec());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (g, [a, b, c], _) = triangle();
        assert!(g.neighbors(a).any(|n| n == b));
        assert!(g.neighbors(b).any(|n| n == a));
        assert_eq!(g.degree(c), 2);
    }

    #[test]
    fn link_between_finds_either_direction() {
        let (g, [a, b, _], [ab, ..]) = triangle();
        assert_eq!(g.link_between(a, b), Some(ab));
        assert_eq!(g.link_between(b, a), Some(ab));
    }

    #[test]
    fn link_between_missing_is_none() {
        let mut g = Graph::with_nodes(3);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(g.link_between(a, b), None);
        g.add_link(a, b, 1.0).unwrap();
        assert_eq!(g.link_between(a, NodeId::new(2)), None);
        assert_eq!(g.link_between(NodeId::new(9), a), None);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = Graph::with_nodes(1);
        let a = NodeId::new(0);
        assert_eq!(g.add_link(a, a, 1.0), Err(NetError::SelfLoop(a)));
    }

    #[test]
    fn duplicate_links_are_rejected() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        g.add_link(a, b, 1.0).unwrap();
        assert!(matches!(
            g.add_link(b, a, 2.0),
            Err(NetError::DuplicateLink(_, _))
        ));
    }

    #[test]
    fn nonpositive_and_nonfinite_weights_are_rejected() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                g.add_link(a, b, bad),
                Err(NetError::InvalidWeight(_))
            ));
        }
    }

    #[test]
    fn unknown_endpoints_are_rejected() {
        let mut g = Graph::with_nodes(1);
        let a = NodeId::new(0);
        let ghost = NodeId::new(42);
        assert_eq!(g.add_link(a, ghost, 1.0), Err(NetError::UnknownNode(ghost)));
    }

    #[test]
    fn opposite_endpoint() {
        let (g, [a, b, _], [ab, ..]) = triangle();
        assert_eq!(g.link(ab).opposite(a), b);
        assert_eq!(g.link(ab).opposite(b), a);
        assert!(g.link(ab).touches(a));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn opposite_of_non_endpoint_panics() {
        let (g, [_, _, c], [ab, ..]) = triangle();
        let _ = g.link(ab).opposite(c);
    }

    #[test]
    fn endpoints_are_ordered() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let l = g.add_link(b, a, 1.0).unwrap();
        assert_eq!(g.link(l).endpoints(), (a, b));
    }

    #[test]
    fn average_degree_of_triangle_is_two() {
        let (g, _, _) = triangle();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(Graph::new().average_degree(), 0.0);
    }

    #[test]
    fn asymmetric_weights_are_kept() {
        let mut g = Graph::with_nodes(2);
        let l = g
            .add_link_weighted(
                NodeId::new(0),
                NodeId::new(1),
                LinkWeights {
                    delay: 1.0,
                    cost: 7.0,
                },
            )
            .unwrap();
        assert_eq!(g.link(l).delay(), 1.0);
        assert_eq!(g.link(l).cost(), 7.0);
    }

    #[test]
    fn positions_round_trip() {
        let mut g = Graph::new();
        let p = Point::new(0.25, 0.75);
        let n = g.add_node_at(p);
        assert_eq!(g.position(n), Some(p));
        let m = g.add_node();
        assert_eq!(g.position(m), None);
    }

    #[test]
    fn induced_subgraph_keeps_internal_links() {
        let (g, [a, b, c], _) = triangle();
        let (sub, mapping) = g.induced_subgraph(&[a, c]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.link_count(), 1); // only the C-A link survives.
        assert_eq!(mapping, vec![a, c]);
        let l = sub.link(sub.link_ids().next().unwrap());
        assert_eq!(l.delay(), 3.0);
        let _ = b;
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let (g, [a, b, _], _) = triangle();
        let (sub, mapping) = g.induced_subgraph(&[a, b, a]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(mapping, vec![a, b]);
    }

    #[test]
    fn delay_between_connected_and_missing() {
        let (g, [a, b, c], _) = triangle();
        assert_eq!(g.delay_between(a, b).unwrap(), 1.0);
        assert_eq!(g.delay_between(b, c).unwrap(), 2.0);
        let mut g2 = Graph::with_nodes(2);
        g2.add_link(NodeId::new(0), NodeId::new(1), 5.0).unwrap();
        assert!(g2.delay_between(NodeId::new(0), NodeId::new(1)).is_ok());
        let (g3, _, _) = triangle();
        let mut g4 = g3.clone();
        let d = g4.add_node();
        assert!(g4.delay_between(a, d).is_err());
    }
}
