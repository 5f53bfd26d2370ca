//! Core graph types: nodes, unidirectional links and the [`Topology`].

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a router (node) in a topology.
///
/// Node ids are dense: `0..topology.num_nodes()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index into dense per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// Identifier of a *unidirectional* link.
///
/// Links are stored in opposing pairs: ids `2k` and `2k + 1` are the two
/// directions of bidirectional link `k`, so [`LinkId::reverse`] is `id ^ 1`.
/// Link ids are dense: `0..topology.num_unidirectional_links()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into dense per-link arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The opposing unidirectional link of the same bidirectional link.
    #[inline]
    pub fn reverse(self) -> LinkId {
        LinkId(self.0 ^ 1)
    }

    /// Index of the bidirectional link this direction belongs to.
    #[inline]
    pub fn bidir_index(self) -> usize {
        (self.0 >> 1) as usize
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A unidirectional link `src -> dst`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct UniLink {
    /// Router the link leaves from.
    pub src: NodeId,
    /// Router the link arrives at.
    pub dst: NodeId,
}

/// Errors produced by topology construction and editing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge referenced a node outside `0..num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: u16,
        /// The topology's node count.
        num_nodes: usize,
    },
    /// The same bidirectional edge was given twice.
    DuplicateEdge {
        /// First endpoint as given.
        a: u16,
        /// Second endpoint as given.
        b: u16,
    },
    /// A self-loop edge `(a, a)` was given.
    SelfLoop {
        /// The node the loop was attached to.
        node: u16,
    },
    /// Removing the requested link would disconnect the network.
    WouldDisconnect {
        /// The bridge link.
        link: LinkId,
    },
    /// The requested number of faults cannot be injected while keeping the
    /// network connected.
    TooManyFaults {
        /// Faults asked for.
        requested: usize,
        /// Faults that could be injected.
        achievable: usize,
    },
    /// A topology must have at least one node.
    Empty,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range for {num_nodes} nodes")
            }
            TopologyError::DuplicateEdge { a, b } => {
                write!(f, "duplicate bidirectional edge ({a}, {b})")
            }
            TopologyError::SelfLoop { node } => write!(f, "self loop at node {node}"),
            TopologyError::WouldDisconnect { link } => {
                write!(f, "removing link {link:?} would disconnect the network")
            }
            TopologyError::TooManyFaults {
                requested,
                achievable,
            } => write!(
                f,
                "cannot inject {requested} faults while keeping the network connected \
                 (at most {achievable} possible)"
            ),
            TopologyError::Empty => write!(f, "topology must have at least one node"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Conversion into a shared, reference-counted [`Topology`].
///
/// Simulator assembly builds several components (routing, mechanism, the
/// core itself) from the same topology; accepting `impl IntoSharedTopology`
/// lets callers hand over an owned `Topology`, a borrow, or an existing
/// `Arc<Topology>` — and components that already share an `Arc` pay zero
/// clones instead of one deep copy each.
pub trait IntoSharedTopology {
    /// Converts `self` into an `Arc<Topology>`.
    fn into_shared(self) -> std::sync::Arc<Topology>;
}

impl IntoSharedTopology for Topology {
    fn into_shared(self) -> std::sync::Arc<Topology> {
        std::sync::Arc::new(self)
    }
}

impl IntoSharedTopology for &Topology {
    fn into_shared(self) -> std::sync::Arc<Topology> {
        std::sync::Arc::new(self.clone())
    }
}

impl IntoSharedTopology for std::sync::Arc<Topology> {
    fn into_shared(self) -> std::sync::Arc<Topology> {
        self
    }
}

impl IntoSharedTopology for &std::sync::Arc<Topology> {
    fn into_shared(self) -> std::sync::Arc<Topology> {
        std::sync::Arc::clone(self)
    }
}

/// An interconnection-network topology.
///
/// Nodes are routers; every physical channel is a *bidirectional link*
/// stored as two opposing [`UniLink`]s (ids `2k` / `2k+1`). This matches the
/// paper's assumption (§III-A) that all routers are connected via
/// bidirectional links and that a faulty unidirectional link disables its
/// opposing twin as well.
///
/// # Examples
///
/// ```
/// use drain_topology::Topology;
///
/// let t = Topology::mesh(4, 4);
/// assert_eq!(t.num_nodes(), 16);
/// assert_eq!(t.num_bidirectional_links(), 24);
/// assert_eq!(t.num_unidirectional_links(), 48);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    name: String,
    num_nodes: usize,
    links: Vec<UniLink>,
    out_adj: Vec<Vec<LinkId>>,
    in_adj: Vec<Vec<LinkId>>,
    /// Mesh coordinates when the topology derives from a grid (used by
    /// dimension-order routing and visualization).
    coords: Option<Vec<(u16, u16)>>,
    mesh_dims: Option<(u16, u16)>,
}

impl Topology {
    /// Builds a topology from a bidirectional edge list.
    ///
    /// Each `(a, b)` pair becomes two opposing unidirectional links.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range nodes, duplicate edges, self loops
    /// or an empty node set.
    pub fn from_edges(
        name: impl Into<String>,
        num_nodes: usize,
        edges: &[(u16, u16)],
    ) -> Result<Self, TopologyError> {
        if num_nodes == 0 {
            return Err(TopologyError::Empty);
        }
        let mut seen = std::collections::HashSet::new();
        let mut links = Vec::with_capacity(edges.len() * 2);
        let mut out_adj = vec![Vec::new(); num_nodes];
        let mut in_adj = vec![Vec::new(); num_nodes];
        for &(a, b) in edges {
            if a as usize >= num_nodes {
                return Err(TopologyError::NodeOutOfRange {
                    node: a,
                    num_nodes,
                });
            }
            if b as usize >= num_nodes {
                return Err(TopologyError::NodeOutOfRange {
                    node: b,
                    num_nodes,
                });
            }
            if a == b {
                return Err(TopologyError::SelfLoop { node: a });
            }
            let key = (a.min(b), a.max(b));
            if !seen.insert(key) {
                return Err(TopologyError::DuplicateEdge { a, b });
            }
            let fwd = LinkId(links.len() as u32);
            links.push(UniLink {
                src: NodeId(a),
                dst: NodeId(b),
            });
            let bwd = LinkId(links.len() as u32);
            links.push(UniLink {
                src: NodeId(b),
                dst: NodeId(a),
            });
            out_adj[a as usize].push(fwd);
            in_adj[b as usize].push(fwd);
            out_adj[b as usize].push(bwd);
            in_adj[a as usize].push(bwd);
        }
        Ok(Topology {
            name: name.into(),
            num_nodes,
            links,
            out_adj,
            in_adj,
            coords: None,
            mesh_dims: None,
        })
    }

    /// Builds a `width x height` 2D mesh.
    ///
    /// Node `(x, y)` has id `y * width + x`. Mesh coordinates are retained
    /// for dimension-order routing.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0 || height == 0`.
    pub fn mesh(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        let mut edges = Vec::new();
        let id = |x: u16, y: u16| y * width + x;
        for y in 0..height {
            for x in 0..width {
                if x + 1 < width {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < height {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        let mut t = Topology::from_edges(
            format!("mesh{width}x{height}"),
            (width as usize) * (height as usize),
            &edges,
        )
        .expect("mesh edges are valid");
        t.coords = Some(
            (0..t.num_nodes)
                .map(|i| ((i as u16) % width, (i as u16) / width))
                .collect(),
        );
        t.mesh_dims = Some((width, height));
        t
    }

    /// Builds a `width x height` 2D torus (mesh plus wraparound links).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 3 (smaller tori would create
    /// duplicate edges).
    pub fn torus(width: u16, height: u16) -> Self {
        assert!(width >= 3 && height >= 3, "torus dimensions must be >= 3");
        let mut edges = Vec::new();
        let id = |x: u16, y: u16| y * width + x;
        for y in 0..height {
            for x in 0..width {
                edges.push((id(x, y), id((x + 1) % width, y)));
                edges.push((id(x, y), id(x, (y + 1) % height)));
            }
        }
        let mut t = Topology::from_edges(
            format!("torus{width}x{height}"),
            (width as usize) * (height as usize),
            &edges,
        )
        .expect("torus edges are valid");
        t.coords = Some(
            (0..t.num_nodes)
                .map(|i| ((i as u16) % width, (i as u16) / width))
                .collect(),
        );
        t.mesh_dims = Some((width, height));
        t
    }

    /// Builds a bidirectional ring of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: u16) -> Self {
        assert!(n >= 3, "ring needs at least 3 nodes");
        let edges: Vec<(u16, u16)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Topology::from_edges(format!("ring{n}"), n as usize, &edges).expect("ring edges are valid")
    }

    /// Name given at construction (e.g. `"mesh8x8"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of routers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of unidirectional links (always even).
    pub fn num_unidirectional_links(&self) -> usize {
        self.links.len()
    }

    /// Number of bidirectional links.
    pub fn num_bidirectional_links(&self) -> usize {
        self.links.len() / 2
    }

    /// FNV-1a hash of the node count and every link's `(src, dst)` in id
    /// order: two topologies with the same fingerprint have, with
    /// overwhelming probability, the same links under the same ids.
    /// Tables built from one topology record it so a consumer handed
    /// tables for another one can refuse them.
    pub(crate) fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        eat(&(self.num_nodes as u64).to_le_bytes());
        for e in &self.links {
            eat(&e.src.0.to_le_bytes());
            eat(&e.dst.0.to_le_bytes());
        }
        h
    }

    /// The unidirectional link with id `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
    pub fn link(&self, l: LinkId) -> UniLink {
        self.links[l.index()]
    }

    /// Outgoing unidirectional links of node `n`.
    #[inline]
    pub fn out_links(&self, n: NodeId) -> &[LinkId] {
        &self.out_adj[n.index()]
    }

    /// Incoming unidirectional links of node `n`.
    #[inline]
    pub fn in_links(&self, n: NodeId) -> &[LinkId] {
        &self.in_adj[n.index()]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes as u16).map(NodeId)
    }

    /// Iterator over all unidirectional link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Degree (number of neighbors) of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.out_adj[n.index()].len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes)
            .map(|i| self.out_adj[i].len())
            .max()
            .unwrap_or(0)
    }

    /// Finds the unidirectional link `a -> b`, if the nodes are adjacent.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.out_adj[a.index()]
            .iter()
            .copied()
            .find(|&l| self.links[l.index()].dst == b)
    }

    /// Mesh coordinates of node `n`, when this topology derives from a grid.
    pub fn coord(&self, n: NodeId) -> Option<(u16, u16)> {
        self.coords.as_ref().map(|c| c[n.index()])
    }

    /// Grid dimensions `(width, height)` when mesh-derived.
    pub fn mesh_dims(&self) -> Option<(u16, u16)> {
        self.mesh_dims
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.num_nodes == 0 {
            return false;
        }
        let mut seen = vec![false; self.num_nodes];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId(0));
        let mut count = 1;
        while let Some(n) = queue.pop_front() {
            for &l in self.out_links(n) {
                let d = self.links[l.index()].dst;
                if !seen[d.index()] {
                    seen[d.index()] = true;
                    count += 1;
                    queue.push_back(d);
                }
            }
        }
        count == self.num_nodes
    }

    /// Whether the graph stays connected after removing bidirectional link
    /// `l` (either direction id may be given).
    pub fn connected_without(&self, l: LinkId) -> bool {
        if self.num_nodes <= 1 {
            return true;
        }
        let skip = l.bidir_index();
        let mut seen = vec![false; self.num_nodes];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId(0));
        let mut count = 1;
        while let Some(n) = queue.pop_front() {
            for &ol in self.out_links(n) {
                if ol.bidir_index() == skip {
                    continue;
                }
                let d = self.links[ol.index()].dst;
                if !seen[d.index()] {
                    seen[d.index()] = true;
                    count += 1;
                    queue.push_back(d);
                }
            }
        }
        count == self.num_nodes
    }

    /// Returns a new topology with bidirectional link `l` removed (either
    /// direction id may be given). Link ids are recompacted, so previously
    /// held [`LinkId`]s are invalidated.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::WouldDisconnect`] if removal would
    /// disconnect the network.
    pub fn without_link(&self, l: LinkId) -> Result<Topology, TopologyError> {
        if !self.connected_without(l) {
            return Err(TopologyError::WouldDisconnect { link: l });
        }
        let skip = l.bidir_index();
        let edges: Vec<(u16, u16)> = (0..self.num_bidirectional_links())
            .filter(|&k| k != skip)
            .map(|k| {
                let ln = self.links[k * 2];
                (ln.src.0, ln.dst.0)
            })
            .collect();
        let mut t = Topology::from_edges(self.name.clone(), self.num_nodes, &edges)?;
        t.coords = self.coords.clone();
        t.mesh_dims = self.mesh_dims;
        Ok(t)
    }

    /// Bidirectional edge list `(a, b)` with `a < b`, one entry per
    /// bidirectional link, in link-id order.
    pub fn edge_list(&self) -> Vec<(u16, u16)> {
        (0..self.num_bidirectional_links())
            .map(|k| {
                let l = self.links[k * 2];
                (l.src.0.min(l.dst.0), l.src.0.max(l.dst.0))
            })
            .collect()
    }

    /// Overrides the topology name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Attaches mesh coordinates to a topology built from an edge list
    /// (coordinates enable DoR routing and coordinate-based traffic
    /// patterns).
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != num_nodes`.
    pub fn set_coords(&mut self, coords: Vec<(u16, u16)>) {
        assert_eq!(coords.len(), self.num_nodes);
        self.coords = Some(coords);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_ids_pair_up() {
        let t = Topology::mesh(3, 3);
        for l in t.link_ids() {
            let fwd = t.link(l);
            let bwd = t.link(l.reverse());
            assert_eq!(fwd.src, bwd.dst);
            assert_eq!(fwd.dst, bwd.src);
            assert_eq!(l.reverse().reverse(), l);
        }
    }

    #[test]
    fn mesh_counts() {
        let t = Topology::mesh(8, 8);
        assert_eq!(t.num_nodes(), 64);
        // 2 * w * h - w - h bidirectional links in a mesh.
        assert_eq!(t.num_bidirectional_links(), 2 * 64 - 8 - 8);
        assert!(t.is_connected());
        assert_eq!(t.max_degree(), 4);
    }

    #[test]
    fn mesh_coords_match_ids() {
        let t = Topology::mesh(4, 3);
        assert_eq!(t.coord(NodeId(0)), Some((0, 0)));
        assert_eq!(t.coord(NodeId(5)), Some((1, 1)));
        assert_eq!(t.coord(NodeId(11)), Some((3, 2)));
    }

    #[test]
    fn torus_has_wraparound() {
        let t = Topology::torus(4, 4);
        assert_eq!(t.num_bidirectional_links(), 32);
        assert!(t.link_between(NodeId(0), NodeId(3)).is_some());
        assert!(t.link_between(NodeId(0), NodeId(12)).is_some());
    }

    #[test]
    fn ring_degree_two() {
        let t = Topology::ring(6);
        for n in t.nodes() {
            assert_eq!(t.degree(n), 2);
        }
        assert!(t.is_connected());
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert_eq!(
            Topology::from_edges("t", 2, &[(0, 0)]),
            Err(TopologyError::SelfLoop { node: 0 })
        );
        assert_eq!(
            Topology::from_edges("t", 2, &[(0, 1), (1, 0)]),
            Err(TopologyError::DuplicateEdge { a: 1, b: 0 })
        );
        assert_eq!(
            Topology::from_edges("t", 2, &[(0, 2)]),
            Err(TopologyError::NodeOutOfRange {
                node: 2,
                num_nodes: 2
            })
        );
        assert_eq!(
            Topology::from_edges("t", 0, &[]),
            Err(TopologyError::Empty)
        );
    }

    #[test]
    fn disconnected_detected() {
        let t = Topology::from_edges("t", 4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!t.is_connected());
    }

    #[test]
    fn bridge_removal_rejected() {
        // Path 0-1-2: every link is a bridge.
        let t = Topology::from_edges("path", 3, &[(0, 1), (1, 2)]).unwrap();
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        assert!(matches!(
            t.without_link(l),
            Err(TopologyError::WouldDisconnect { .. })
        ));
    }

    #[test]
    fn non_bridge_removal_ok() {
        let t = Topology::mesh(3, 3);
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        let t2 = t.without_link(l).unwrap();
        assert!(t2.is_connected());
        assert_eq!(
            t2.num_bidirectional_links(),
            t.num_bidirectional_links() - 1
        );
        assert!(t2.link_between(NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn adjacency_is_consistent() {
        let t = Topology::mesh(5, 4);
        for n in t.nodes() {
            for &l in t.out_links(n) {
                assert_eq!(t.link(l).src, n);
            }
            for &l in t.in_links(n) {
                assert_eq!(t.link(l).dst, n);
            }
        }
        let total_out: usize = t.nodes().map(|n| t.out_links(n).len()).sum();
        assert_eq!(total_out, t.num_unidirectional_links());
    }
}
