//! up*/down* routing support.
//!
//! up*/down* [Schroeder et al.] is the classic topology-agnostic
//! deadlock-free routing used by the paper's escape-VC baseline on irregular
//! topologies (§II-C, Fig 5): routers are numbered via a BFS spanning tree;
//! every unidirectional link is *up* (toward the root) or *down* (away from
//! it); a legal path is zero or more up links followed by zero or more down
//! links, i.e. the down→up turn is forbidden, which breaks every cycle.
//!
//! [`UpDownRouting`] precomputes, for every (current node, destination,
//! phase), the set of next-hop links on a *minimal legal* path. The phase —
//! whether the packet has already traversed a down link — is derivable at a
//! router from the direction of the input link, exactly as in hardware
//! implementations.

use crate::csr::LinkCsr;
use crate::{LinkId, NodeId, Topology};

/// Direction of a unidirectional link relative to the spanning-tree root.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkDirection {
    /// Toward the root (to a lower (level, id) label).
    Up,
    /// Away from the root.
    Down,
}

/// Routing phase of a packet under up*/down* rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// No down link taken yet: both up and down links are legal.
    CanUp,
    /// A down link was taken: only down links are legal.
    DownOnly,
}

/// Table index of each [`Phase`] (the `phase as usize` of the accessors).
const CAN_UP: usize = Phase::CanUp as usize;
const DOWN_ONLY: usize = Phase::DownOnly as usize;

/// Phase (table index) after a packet in `phase` takes a link in
/// direction `dir`; `None` for the forbidden down→up turn.
fn step(phase: usize, dir: LinkDirection) -> Option<usize> {
    match (phase, dir) {
        (CAN_UP, LinkDirection::Up) => Some(CAN_UP),
        (_, LinkDirection::Down) => Some(DOWN_ONLY),
        (_, LinkDirection::Up) => None,
    }
}

/// Precomputed up*/down* labeling and minimal legal-path routing tables.
///
/// # Examples
///
/// ```
/// use drain_topology::{Topology, NodeId, updown::{UpDownRouting, Phase}};
///
/// let t = Topology::mesh(4, 4);
/// let ud = UpDownRouting::new(&t);
/// let hops = ud.next_hops(NodeId(0), NodeId(15), Phase::CanUp);
/// assert!(!hops.is_empty());
/// // All routes terminate: distances are finite from the CanUp phase.
/// assert!(ud.legal_distance(NodeId(3), NodeId(12), Phase::CanUp) < u16::MAX);
/// ```
#[derive(Clone, Debug)]
pub struct UpDownRouting {
    root: NodeId,
    level: Vec<u16>,
    num_nodes: usize,
    /// Direction per unidirectional link.
    dir: Vec<LinkDirection>,
    /// `dist[phase][u * n + dest]`: minimal legal hop count, `u16::MAX` if
    /// unreachable in that phase.
    dist: [Vec<u16>; 2],
    /// `hops[phase]` row `u * n + dest`: minimal legal next-hop links.
    hops: [LinkCsr; 2],
}

impl UpDownRouting {
    /// Builds the labeling and tables using the highest-degree node
    /// (lowest id tie-break) as root — the usual heuristic.
    pub fn new(topo: &Topology) -> Self {
        let root = topo
            .nodes()
            .max_by_key(|&n| (topo.degree(n), std::cmp::Reverse(n.0)))
            .expect("topology is non-empty");
        Self::with_root(topo, root)
    }

    /// Builds the labeling and tables from a chosen root.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is disconnected (up*/down* labels require a spanning
    /// tree reaching every node).
    pub fn with_root(topo: &Topology, root: NodeId) -> Self {
        let n = topo.num_nodes();
        // BFS levels from the root.
        let mut level = vec![u16::MAX; n];
        level[root.index()] = 0;
        let mut order = Vec::with_capacity(n);
        order.push(root);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &l in topo.out_links(u) {
                let v = topo.link(l).dst;
                if level[v.index()] == u16::MAX {
                    level[v.index()] = level[u.index()] + 1;
                    order.push(v);
                }
            }
        }
        assert!(
            level.iter().all(|&l| l != u16::MAX),
            "up*/down* requires a connected topology"
        );
        // A link u -> v is Up iff v's (level, id) label is smaller.
        let label = |x: NodeId| (level[x.index()], x.0);
        let dir: Vec<LinkDirection> = topo
            .link_ids()
            .map(|l| {
                let e = topo.link(l);
                if label(e.dst) < label(e.src) {
                    LinkDirection::Up
                } else {
                    LinkDirection::Down
                }
            })
            .collect();

        // Per-source BFS over the phase-expanded graph, forward:
        //   (u, CanUp) --up--> (v, CanUp)
        //   (u, CanUp) --down--> (v, DownOnly)
        //   (u, DownOnly) --down--> (v, DownOnly)
        // The legal distance from (src, phase) to x is the BFS level at
        // which x is first reached in either phase, so each BFS fills row
        // `src` of one phase's table with contiguous writes. State
        // `x * 2 + phase` enters the flat queue at most once per BFS; the
        // queue's contents are exactly the states whose `seen` flag to
        // clear afterwards.
        let mut dist = [vec![u16::MAX; n * n], vec![u16::MAX; n * n]];
        let mut seen = vec![false; 2 * n];
        let mut queue: Vec<u32> = Vec::with_capacity(2 * n);
        for src in topo.nodes() {
            for phase in [CAN_UP, DOWN_ONLY] {
                let row = &mut dist[phase][src.index() * n..(src.index() + 1) * n];
                let start = (src.index() * 2 + phase) as u32;
                queue.clear();
                queue.push(start);
                seen[start as usize] = true;
                row[src.index()] = 0;
                let (mut head, mut depth) = (0, 0u16);
                while head < queue.len() {
                    // One BFS level: the states queued so far at `depth`.
                    let level_end = queue.len();
                    depth += 1;
                    while head < level_end {
                        let state = queue[head] as usize;
                        head += 1;
                        let (u, p) = (state / 2, state % 2);
                        for &l in topo.out_links(NodeId(u as u16)) {
                            let Some(next) = step(p, dir[l.index()]) else {
                                continue;
                            };
                            let v = topo.link(l).dst.index();
                            let s = v * 2 + next;
                            if !seen[s] {
                                seen[s] = true;
                                queue.push(s as u32);
                                if row[v] == u16::MAX {
                                    row[v] = depth;
                                }
                            }
                        }
                    }
                }
                for &s in &queue {
                    seen[s as usize] = false;
                }
            }
        }
        // Next-hop sets from the distance tables, row-major: for a fixed
        // `u`, each legality test reads a neighbour's distance row
        // sequentially in `dest`.
        let mut hops = [LinkCsr::with_rows(n * n), LinkCsr::with_rows(n * n)];
        // Per out link of `u`: the link, its direction, and the
        // neighbour's distance row in each phase.
        let mut next: Vec<(LinkId, LinkDirection, [&[u16]; 2])> = Vec::new();
        for u in topo.nodes() {
            next.clear();
            next.extend(topo.out_links(u).iter().map(|&l| {
                let v = topo.link(l).dst.index();
                let rows = [
                    &dist[CAN_UP][v * n..(v + 1) * n],
                    &dist[DOWN_ONLY][v * n..(v + 1) * n],
                ];
                (l, dir[l.index()], rows)
            }));
            for dest in 0..n {
                for phase in [CAN_UP, DOWN_ONLY] {
                    let du = dist[phase][u.index() * n + dest];
                    if dest != u.index() && du != u16::MAX {
                        for &(l, d, rows) in &next {
                            if step(phase, d).is_some_and(|p| rows[p][dest] == du - 1) {
                                hops[phase].push(l);
                            }
                        }
                    }
                    hops[phase].end_row();
                }
            }
        }
        UpDownRouting {
            root,
            level,
            num_nodes: n,
            dir,
            dist,
            hops,
        }
    }

    /// The spanning-tree root used for the labeling.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// BFS level of node `n` (root is 0).
    pub fn level(&self, n: NodeId) -> u16 {
        self.level[n.index()]
    }

    /// Direction of unidirectional link `l`.
    pub fn direction(&self, l: LinkId) -> LinkDirection {
        self.dir[l.index()]
    }

    /// Whether the turn `from -> to` is legal under up*/down* rules
    /// (down→up is the forbidden turn).
    pub fn is_legal_turn(&self, from: LinkId, to: LinkId) -> bool {
        !(self.dir[from.index()] == LinkDirection::Down
            && self.dir[to.index()] == LinkDirection::Up)
    }

    /// Phase implied by the link a packet arrived on (`None` = injected
    /// here, so no down link taken yet).
    pub fn phase_after(&self, arrived_via: Option<LinkId>) -> Phase {
        match arrived_via {
            Some(l) if self.dir[l.index()] == LinkDirection::Down => Phase::DownOnly,
            _ => Phase::CanUp,
        }
    }

    /// Minimal legal hop count from `cur` (in `phase`) to `dest`
    /// (`u16::MAX` if unreachable in that phase).
    pub fn legal_distance(&self, cur: NodeId, dest: NodeId, phase: Phase) -> u16 {
        self.dist[phase as usize][cur.index() * self.num_nodes + dest.index()]
    }

    /// Next-hop links on a minimal legal path from `cur` to `dest` given the
    /// packet's `phase`.
    pub fn next_hops(&self, cur: NodeId, dest: NodeId, phase: Phase) -> &[LinkId] {
        self.hops[phase as usize].row(cur.index() * self.num_nodes + dest.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultInjector;

    fn check_all_pairs_route(topo: &Topology, ud: &UpDownRouting) {
        // Follow next_hops greedily from every (src, dest): must terminate.
        for src in topo.nodes() {
            for dest in topo.nodes() {
                if src == dest {
                    continue;
                }
                let mut cur = src;
                let mut phase = Phase::CanUp;
                let mut hops = 0;
                while cur != dest {
                    let nh = ud.next_hops(cur, dest, phase);
                    assert!(
                        !nh.is_empty(),
                        "no legal next hop from {cur:?} to {dest:?} in {phase:?}"
                    );
                    let l = nh[0];
                    phase = match (phase, ud.direction(l)) {
                        (Phase::CanUp, LinkDirection::Up) => Phase::CanUp,
                        _ => Phase::DownOnly,
                    };
                    cur = topo.link(l).dst;
                    hops += 1;
                    assert!(hops <= topo.num_nodes() as u32 * 2, "routing loop");
                }
            }
        }
    }

    #[test]
    fn routes_complete_on_mesh() {
        let t = Topology::mesh(4, 4);
        let ud = UpDownRouting::new(&t);
        check_all_pairs_route(&t, &ud);
    }

    #[test]
    fn routes_complete_on_faulty_mesh() {
        for seed in 0..5 {
            let t = FaultInjector::new(seed)
                .remove_links(&Topology::mesh(8, 8), 12)
                .unwrap();
            let ud = UpDownRouting::new(&t);
            check_all_pairs_route(&t, &ud);
        }
    }

    #[test]
    fn no_cycle_in_legal_turns() {
        // The legal-turn graph over links must be acyclic when restricted to
        // the up*/down* rule... more precisely, any cycle of links must
        // contain a down->up (illegal) turn. Verify via DFS on the legal
        // dependency graph.
        let t = FaultInjector::new(3)
            .remove_links(&Topology::mesh(6, 6), 8)
            .unwrap();
        let ud = UpDownRouting::new(&t);
        let m = t.num_unidirectional_links();
        // 0 = unvisited, 1 = on stack, 2 = done
        let mut state = vec![0u8; m];
        let mut stack: Vec<(LinkId, usize)> = Vec::new();
        for start in t.link_ids() {
            if state[start.index()] != 0 {
                continue;
            }
            stack.push((start, 0));
            state[start.index()] = 1;
            while let Some(&mut (l, ref mut i)) = stack.last_mut() {
                let pivot = t.link(l).dst;
                let outs = t.out_links(pivot);
                let mut advanced = false;
                while *i < outs.len() {
                    let nxt = outs[*i];
                    *i += 1;
                    if !ud.is_legal_turn(l, nxt) {
                        continue;
                    }
                    match state[nxt.index()] {
                        0 => {
                            state[nxt.index()] = 1;
                            stack.push((nxt, 0));
                            advanced = true;
                            break;
                        }
                        1 => panic!("cycle of legal turns found: up*/down* broken"),
                        _ => {}
                    }
                }
                if !advanced && stack.last().map(|&(x, _)| x) == Some(l) {
                    state[l.index()] = 2;
                    stack.pop();
                }
            }
        }
    }

    #[test]
    fn up_down_direction_antisymmetric() {
        let t = Topology::mesh(5, 5);
        let ud = UpDownRouting::new(&t);
        for l in t.link_ids() {
            assert_ne!(
                ud.direction(l),
                ud.direction(l.reverse()),
                "a link and its reverse must have opposite directions"
            );
        }
    }

    #[test]
    fn root_has_highest_degree() {
        let t = Topology::mesh(5, 5);
        let ud = UpDownRouting::new(&t);
        assert_eq!(t.degree(ud.root()), t.max_degree());
        assert_eq!(ud.level(ud.root()), 0);
    }

    #[test]
    fn non_minimal_paths_exist_under_updown() {
        // up*/down* often forces non-minimal routes; verify at least one
        // pair on a faulty mesh pays extra hops vs. the unrestricted
        // shortest path (this is the Fig 5 latency-gap mechanism).
        let t = FaultInjector::new(1)
            .remove_links(&Topology::mesh(8, 8), 8)
            .unwrap();
        let ud = UpDownRouting::new(&t);
        let d = crate::distance::DistanceMap::new(&t);
        let mut stretched = 0;
        for a in t.nodes() {
            for b in t.nodes() {
                if a == b {
                    continue;
                }
                let legal = ud.legal_distance(a, b, Phase::CanUp);
                let min = d.distance(a, b);
                assert!(legal >= min);
                assert_ne!(legal, u16::MAX);
                if legal > min {
                    stretched += 1;
                }
            }
        }
        assert!(stretched > 0, "expected some non-minimal up*/down* routes");
    }
}
