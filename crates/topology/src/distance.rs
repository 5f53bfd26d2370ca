//! All-pairs shortest-path machinery for minimal adaptive routing.
//!
//! The simulator's fully-adaptive router consults a [`DistanceMap`] to find
//! the set of *productive* output links (those on some minimal path to the
//! destination). Distances are hop counts from BFS over the unidirectional
//! link graph, recomputed whenever the topology changes (fault events).

use crate::csr::LinkCsr;
use crate::{LinkId, NodeId, Topology};

/// Dense all-pairs hop-count table plus per-(node, dest) productive-link
/// sets.
///
/// # Examples
///
/// ```
/// use drain_topology::{Topology, NodeId, distance::DistanceMap};
///
/// let t = Topology::mesh(4, 4);
/// let d = DistanceMap::new(&t);
/// assert_eq!(d.distance(NodeId(0), NodeId(15)), 6);
/// assert_eq!(d.diameter(), 6);
/// // From a corner toward the opposite corner, both mesh directions are
/// // productive.
/// assert_eq!(d.productive_links(NodeId(0), NodeId(15)).len(), 2);
/// assert!(d.is_built_for(&t));
/// ```
#[derive(Clone, Debug)]
pub struct DistanceMap {
    num_nodes: usize,
    num_links: usize,
    /// [`Topology::fingerprint`] of the topology the map was built from.
    fingerprint: u64,
    /// `dist[src * n + dst]`, `u16::MAX` = unreachable.
    dist: Vec<u16>,
    /// Productive-link sets, row `cur * n + dst`. One lookup is two loads
    /// into contiguous arrays — the per-packet routing query in the
    /// simulator's hot loop — instead of chasing a per-pair heap `Vec`.
    prod: LinkCsr,
    diameter: u16,
    avg_distance: f64,
}

impl DistanceMap {
    /// Computes BFS distances and productive-link sets for `topo`.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let mut dist = vec![u16::MAX; n * n];
        // BFS from every source over the forward links fills row `src`:
        // contiguous writes, and one flat queue reused for every source
        // (each node enters it at most once per BFS).
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        for (src, row) in topo.nodes().zip(dist.chunks_exact_mut(n)) {
            row[src.index()] = 0;
            queue.clear();
            queue.push(src);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                let du = row[u.index()];
                for &l in topo.out_links(u) {
                    let v = topo.link(l).dst.index();
                    if row[v] == u16::MAX {
                        row[v] = du + 1;
                        queue.push(NodeId(v as u16));
                    }
                }
            }
        }
        // Build the CSR row-major: for a fixed `cur`, the (cur, dest)
        // visit order is the row order, and each productive test reads the
        // neighbour's distance row sequentially in `dest`.
        let mut prod = LinkCsr::with_rows(n * n);
        let mut next: Vec<(LinkId, &[u16])> = Vec::new();
        let mut diameter = 0u16;
        let mut sum = 0u64;
        let mut pairs = 0u64;
        for cur in topo.nodes() {
            next.clear();
            next.extend(topo.out_links(cur).iter().map(|&l| {
                let v = topo.link(l).dst.index();
                (l, &dist[v * n..(v + 1) * n])
            }));
            let row = &dist[cur.index() * n..(cur.index() + 1) * n];
            for (dest, &d) in row.iter().enumerate() {
                if dest != cur.index() && d != u16::MAX {
                    diameter = diameter.max(d);
                    sum += u64::from(d);
                    pairs += 1;
                    for &(l, nrow) in &next {
                        if nrow[dest] == d - 1 {
                            prod.push(l);
                        }
                    }
                }
                prod.end_row();
            }
        }
        DistanceMap {
            num_nodes: n,
            num_links: topo.num_unidirectional_links(),
            fingerprint: topo.fingerprint(),
            dist,
            prod,
            diameter,
            avg_distance: if pairs == 0 {
                0.0
            } else {
                sum as f64 / pairs as f64
            },
        }
    }

    /// Whether the map was built from a topology with `topo`'s node count,
    /// link count and link endpoints (a hash of every link's `(src, dst)`
    /// in id order, recorded at build time) — i.e. whether its node and
    /// link ids mean the same routers and links as `topo`'s.
    pub fn is_built_for(&self, topo: &Topology) -> bool {
        self.num_nodes == topo.num_nodes()
            && self.num_links == topo.num_unidirectional_links()
            && self.fingerprint == topo.fingerprint()
    }

    /// Number of routers of the topology the map was built from.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of unidirectional links of the topology the map was built
    /// from.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Hop count from `src` to `dst` (`u16::MAX` if unreachable).
    #[inline]
    pub fn distance(&self, src: NodeId, dst: NodeId) -> u16 {
        self.dist[src.index() * self.num_nodes + dst.index()]
    }

    /// Outgoing links of `cur` that lie on a minimal path to `dest`.
    #[inline]
    pub fn productive_links(&self, cur: NodeId, dest: NodeId) -> &[LinkId] {
        self.prod.row(cur.index() * self.num_nodes + dest.index())
    }

    /// Longest shortest path between any reachable pair.
    pub fn diameter(&self) -> u16 {
        self.diameter
    }

    /// Mean shortest-path hop count over all ordered reachable pairs.
    pub fn avg_distance(&self) -> f64 {
        self.avg_distance
    }

    /// Average number of minimal next hops over all (cur, dest) pairs with
    /// `cur != dest` — a simple path-diversity metric.
    pub fn path_diversity(&self) -> f64 {
        let n = self.num_nodes;
        let mut sum = 0usize;
        let mut count = 0usize;
        for s in 0..n {
            for t in 0..n {
                if s == t {
                    continue;
                }
                sum += self.prod.row_len(s * n + t);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultInjector;

    #[test]
    fn mesh_distances_are_manhattan() {
        let t = Topology::mesh(5, 5);
        let d = DistanceMap::new(&t);
        for a in t.nodes() {
            for b in t.nodes() {
                let (ax, ay) = t.coord(a).unwrap();
                let (bx, by) = t.coord(b).unwrap();
                let manhattan = ax.abs_diff(bx) + ay.abs_diff(by);
                assert_eq!(d.distance(a, b), manhattan);
            }
        }
    }

    #[test]
    fn productive_links_decrease_distance() {
        let t = FaultInjector::new(11)
            .remove_links(&Topology::mesh(6, 6), 8)
            .unwrap();
        let d = DistanceMap::new(&t);
        for a in t.nodes() {
            for b in t.nodes() {
                if a == b {
                    continue;
                }
                let links = d.productive_links(a, b);
                assert!(!links.is_empty(), "connected graph must have a next hop");
                for &l in links {
                    let next = t.link(l).dst;
                    assert_eq!(d.distance(next, b) + 1, d.distance(a, b));
                }
            }
        }
    }

    #[test]
    fn faults_increase_average_distance() {
        let base = Topology::mesh(8, 8);
        let d0 = DistanceMap::new(&base);
        let faulty = FaultInjector::new(2).remove_links(&base, 12).unwrap();
        let d1 = DistanceMap::new(&faulty);
        assert!(d1.avg_distance() >= d0.avg_distance());
        assert!(d1.path_diversity() <= d0.path_diversity());
    }

    #[test]
    fn ring_diameter() {
        let t = Topology::ring(8);
        let d = DistanceMap::new(&t);
        assert_eq!(d.diameter(), 4);
    }
}
