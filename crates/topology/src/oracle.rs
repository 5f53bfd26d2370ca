//! Reference builders for the all-pairs routing tables, and the property
//! tests that hold the flat builders to them.
//!
//! These are the original algorithms: one reverse BFS per destination with
//! its own `VecDeque`, strided (column-by-column) table writes, and one
//! heap `Vec` per `(cur, dest)` link set. [`DistanceMap::new`] and
//! [`UpDownRouting::new`] must reproduce them element for element —
//! including the order of links within each set, because the simulator's
//! tie-break rotation makes candidate order part of its determinism
//! contract.

use std::collections::VecDeque;

use proptest::prelude::*;

use crate::chiplet::random_connected;
use crate::distance::DistanceMap;
use crate::faults::FaultInjector;
use crate::updown::{LinkDirection, Phase, UpDownRouting};
use crate::{LinkId, NodeId, Topology};

const CAN_UP: usize = 0;
const DOWN_ONLY: usize = 1;

/// Reference distance table `dist[src * n + dst]` and productive-link sets.
fn reference_distance(topo: &Topology) -> (Vec<u16>, Vec<Vec<LinkId>>) {
    let n = topo.num_nodes();
    let mut dist = vec![u16::MAX; n * n];
    for dest in topo.nodes() {
        let base = |x: usize| x * n + dest.index();
        dist[base(dest.index())] = 0;
        let mut q = VecDeque::new();
        q.push_back(dest);
        while let Some(v) = q.pop_front() {
            let dv = dist[base(v.index())];
            for &l in topo.in_links(v) {
                let u = topo.link(l).src;
                if dist[base(u.index())] == u16::MAX {
                    dist[base(u.index())] = dv + 1;
                    q.push_back(u);
                }
            }
        }
    }
    let mut prod = vec![Vec::new(); n * n];
    for cur in topo.nodes() {
        for dest in topo.nodes() {
            let d = dist[cur.index() * n + dest.index()];
            if cur != dest && d != u16::MAX {
                prod[cur.index() * n + dest.index()] = topo
                    .out_links(cur)
                    .iter()
                    .copied()
                    .filter(|&l| dist[topo.link(l).dst.index() * n + dest.index()] == d - 1)
                    .collect();
            }
        }
    }
    (dist, prod)
}

/// Reference up*/down* tables for `root`.
struct ReferenceUpDown {
    level: Vec<u16>,
    dir: Vec<LinkDirection>,
    dist: [Vec<u16>; 2],
    hops: [Vec<Vec<LinkId>>; 2],
}

fn reference_updown(topo: &Topology, root: NodeId) -> ReferenceUpDown {
    let n = topo.num_nodes();
    let mut level = vec![u16::MAX; n];
    level[root.index()] = 0;
    let mut q = VecDeque::new();
    q.push_back(root);
    while let Some(u) = q.pop_front() {
        for &l in topo.out_links(u) {
            let v = topo.link(l).dst;
            if level[v.index()] == u16::MAX {
                level[v.index()] = level[u.index()] + 1;
                q.push_back(v);
            }
        }
    }
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
    let mut dist = [vec![u16::MAX; n * n], vec![u16::MAX; n * n]];
    for dest in topo.nodes() {
        let di = dest.index();
        dist[CAN_UP][di * n + di] = 0;
        dist[DOWN_ONLY][di * n + di] = 0;
        let mut q: VecDeque<(NodeId, usize)> = VecDeque::new();
        q.push_back((dest, CAN_UP));
        q.push_back((dest, DOWN_ONLY));
        while let Some((v, phase)) = q.pop_front() {
            let dv = dist[phase][v.index() * n + di];
            for &l in topo.in_links(v) {
                let u = topo.link(l).src;
                let preds: &[usize] = match (dir[l.index()], phase) {
                    (LinkDirection::Up, CAN_UP) => &[CAN_UP],
                    (LinkDirection::Down, DOWN_ONLY) => &[CAN_UP, DOWN_ONLY],
                    _ => &[],
                };
                for &p in preds {
                    let slot = &mut dist[p][u.index() * n + di];
                    if *slot == u16::MAX {
                        *slot = dv + 1;
                        q.push_back((u, p));
                    }
                }
            }
        }
    }
    let mut hops = [vec![Vec::new(); n * n], vec![Vec::new(); n * n]];
    for u in topo.nodes() {
        for dest in topo.nodes() {
            if u == dest {
                continue;
            }
            for phase in [CAN_UP, DOWN_ONLY] {
                let du = dist[phase][u.index() * n + dest.index()];
                if du == u16::MAX {
                    continue;
                }
                hops[phase][u.index() * n + dest.index()] = topo
                    .out_links(u)
                    .iter()
                    .copied()
                    .filter(|&l| {
                        let v = topo.link(l).dst;
                        let next_phase = match (phase, dir[l.index()]) {
                            (CAN_UP, LinkDirection::Up) => CAN_UP,
                            (_, LinkDirection::Down) => DOWN_ONLY,
                            (_, LinkDirection::Up) => return false,
                        };
                        dist[next_phase][v.index() * n + dest.index()] == du - 1
                    })
                    .collect();
            }
        }
    }
    ReferenceUpDown {
        level,
        dir,
        dist,
        hops,
    }
}

/// Asserts both flat builders equal the references on `topo`.
fn assert_tables_match_reference(topo: &Topology) {
    let n = topo.num_nodes();
    let pair = |a: NodeId, b: NodeId| a.index() * n + b.index();

    let d = DistanceMap::new(topo);
    let (dist, prod) = reference_distance(topo);
    for a in topo.nodes() {
        for b in topo.nodes() {
            assert_eq!(d.distance(a, b), dist[pair(a, b)], "distance {a:?}->{b:?}");
            assert_eq!(
                d.productive_links(a, b),
                prod[pair(a, b)].as_slice(),
                "productive links {a:?}->{b:?}"
            );
        }
    }

    let ud = UpDownRouting::new(topo);
    let r = reference_updown(topo, ud.root());
    for x in topo.nodes() {
        assert_eq!(ud.level(x), r.level[x.index()], "level of {x:?}");
    }
    for l in topo.link_ids() {
        assert_eq!(ud.direction(l), r.dir[l.index()], "direction of {l:?}");
    }
    for (phase, p) in [(Phase::CanUp, CAN_UP), (Phase::DownOnly, DOWN_ONLY)] {
        for a in topo.nodes() {
            for b in topo.nodes() {
                let du = ud.legal_distance(a, b, phase);
                assert_eq!(du, r.dist[p][pair(a, b)], "{phase:?} distance {a:?}->{b:?}");
                let hops = ud.next_hops(a, b, phase);
                assert_eq!(
                    hops,
                    r.hops[p][pair(a, b)].as_slice(),
                    "{phase:?} hops {a:?}->{b:?}"
                );
                // Every hop is legal and one step closer in the phase it
                // leads to.
                for &l in hops {
                    let next = match (phase, ud.direction(l)) {
                        (Phase::CanUp, LinkDirection::Up) => Phase::CanUp,
                        (_, LinkDirection::Down) => Phase::DownOnly,
                        (_, LinkDirection::Up) => panic!("down->up hop {l:?}"),
                    };
                    assert_eq!(ud.legal_distance(topo.link(l).dst, b, next) + 1, du);
                }
            }
        }
    }
}

#[test]
fn tables_match_reference_on_named_topologies() {
    for topo in [
        Topology::mesh(8, 8),
        Topology::torus(4, 4),
        Topology::ring(8),
        crate::chiplet::fig8_topology(),
    ] {
        assert_tables_match_reference(&topo);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tables_match_reference_on_random_topologies(
        n in 8u16..=256,
        degree_tenths in 20u32..=60,
        seed in any::<u64>(),
    ) {
        let topo = random_connected(n, f64::from(degree_tenths) / 10.0, seed);
        assert_tables_match_reference(&topo);
    }

    #[test]
    fn tables_match_reference_on_faulty_meshes(
        w in 2u16..=12,
        h in 2u16..=12,
        faults in 0usize..=16,
        seed in any::<u64>(),
    ) {
        let mesh = Topology::mesh(w, h);
        // Leave at least a spanning tree standing.
        let removable = mesh.num_bidirectional_links() - (mesh.num_nodes() - 1);
        let topo = FaultInjector::new(seed)
            .remove_links(&mesh, faults.min(removable))
            .expect("within the removable budget");
        assert_tables_match_reference(&topo);
    }
}
