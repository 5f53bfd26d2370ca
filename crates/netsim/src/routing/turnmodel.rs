//! Turn-model routing (Glass & Ni): the classic proactive deadlock
//! avoidance of Table I's first row.
//!
//! A turn model forbids just enough turns to make the mesh's channel
//! dependency graph acyclic while retaining partial adaptivity:
//!
//! * **West-first** — all turns *to* the west (−x) are forbidden; a packet
//!   must travel west first, then is fully adaptive among the remaining
//!   productive directions.
//! * **Negative-first** — turns from a positive direction to a negative
//!   one are forbidden; packets go negative (−x/−y) first, then positive.
//!
//! Only valid on full (fault-free) meshes, like DoR — which is exactly the
//! limitation the paper's §I holds against proactive schemes ("limited to
//! static, regular topologies").

use std::sync::Arc;

use drain_topology::{IntoSharedTopology, LinkId, NodeId, Topology};

use super::{push_rotated, Candidate, RouteCtx, Routing, TargetVc, WakeProfile};

/// Which turn model to apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TurnModelKind {
    /// West-first: go −x first, then adaptive among {+x, +y, −y}.
    WestFirst,
    /// Negative-first: go {−x, −y} first, then adaptive among {+x, +y}.
    NegativeFirst,
}

/// Partially adaptive turn-model routing on a full mesh.
#[derive(Clone, Debug)]
pub struct TurnModel {
    topo: Arc<Topology>,
    kind: TurnModelKind,
}

impl TurnModel {
    /// Builds the routing. Accepts an owned or borrowed topology, or an
    /// `Arc` to share one without cloning.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is not mesh-derived (no coordinates).
    pub fn new(topo: impl IntoSharedTopology, kind: TurnModelKind) -> Self {
        let topo = topo.into_shared();
        assert!(
            topo.coord(NodeId(0)).is_some(),
            "turn models require a mesh topology"
        );
        TurnModel { topo, kind }
    }

    /// The model in use.
    pub fn kind(&self) -> TurnModelKind {
        self.kind
    }

    fn neighbor(&self, cur: NodeId, dx: i32, dy: i32) -> Option<LinkId> {
        let (x, y) = self.topo.coord(cur).expect("mesh coords");
        let (w, h) = self.topo.mesh_dims().expect("mesh dims");
        let nx = x as i32 + dx;
        let ny = y as i32 + dy;
        if nx < 0 || ny < 0 || nx >= w as i32 || ny >= h as i32 {
            return None;
        }
        let next = NodeId((ny as u16) * w + nx as u16);
        self.topo.link_between(cur, next)
    }

    /// Legal productive next hops from `cur` toward `dest` — at most two
    /// on a mesh — written into `buf`; returns the filled prefix. The
    /// caller's buffer keeps the per-packet routing query allocation-free.
    pub fn next_hops<'a>(
        &self,
        cur: NodeId,
        dest: NodeId,
        buf: &'a mut [LinkId; 2],
    ) -> &'a [LinkId] {
        let (cx, cy) = self.topo.coord(cur).expect("mesh coords");
        let (dx, dy) = self.topo.coord(dest).expect("mesh coords");
        let go_w = dx < cx;
        let go_e = dx > cx;
        let go_n = dy > cy; // +y
        let go_s = dy < cy; // -y

        // Directions to offer, in preference order.
        let dirs: [(bool, i32, i32); 2] = match self.kind {
            // Must finish all westward movement first.
            TurnModelKind::WestFirst if go_w => [(true, -1, 0), (false, 0, 0)],
            // East, then whichever of north/south is productive.
            TurnModelKind::WestFirst => {
                [(go_e, 1, 0), (go_n || go_s, 0, if go_n { 1 } else { -1 })]
            }
            // Negative movement first, adaptively among negatives.
            TurnModelKind::NegativeFirst if go_w || go_s => [(go_w, -1, 0), (go_s, 0, -1)],
            TurnModelKind::NegativeFirst => [(go_e, 1, 0), (go_n, 0, 1)],
        };
        let mut len = 0;
        for (wanted, ddx, ddy) in dirs {
            if let Some(l) = wanted.then(|| self.neighbor(cur, ddx, ddy)).flatten() {
                buf[len] = l;
                len += 1;
            }
        }
        &buf[..len]
    }
}

impl Routing for TurnModel {
    fn name(&self) -> &str {
        match self.kind {
            TurnModelKind::WestFirst => "west-first",
            TurnModelKind::NegativeFirst => "negative-first",
        }
    }

    fn candidates(&self, ctx: &RouteCtx, out: &mut Vec<Candidate>) {
        let mut buf = [LinkId(0); 2];
        let links = self.next_hops(ctx.cur, ctx.dest, &mut buf);
        let target = if ctx.in_escape {
            TargetVc::EscapeOnly
        } else {
            TargetVc::Any
        };
        push_rotated(links, ctx.sample, target, out);
    }

    fn wake_profile(&self) -> WakeProfile {
        // Purely coordinate-based next hops; `sample` only rotates.
        WakeProfile::Stable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::NoMechanism;
    use crate::traffic::{SyntheticPattern, SyntheticTraffic};
    use crate::{Sim, SimConfig};

    fn walk(tm: &TurnModel, topo: &Topology, src: NodeId, dest: NodeId) -> u32 {
        let mut cur = src;
        let mut hops = 0;
        let mut buf = [LinkId(0); 2];
        while cur != dest {
            let hs = tm.next_hops(cur, dest, &mut buf);
            assert!(!hs.is_empty(), "stuck at {cur:?} heading to {dest:?}");
            cur = topo.link(hs[0]).dst;
            hops += 1;
            assert!(hops < 64, "loop detected");
        }
        hops
    }

    #[test]
    fn all_pairs_reachable_and_minimal() {
        let topo = Topology::mesh(5, 5);
        for kind in [TurnModelKind::WestFirst, TurnModelKind::NegativeFirst] {
            let tm = TurnModel::new(&topo, kind);
            let d = drain_topology::distance::DistanceMap::new(&topo);
            for s in topo.nodes() {
                for t in topo.nodes() {
                    if s == t {
                        continue;
                    }
                    let hops = walk(&tm, &topo, s, t);
                    assert_eq!(hops as u16, d.distance(s, t), "{kind:?} is minimal");
                }
            }
        }
    }

    #[test]
    fn west_first_never_turns_west() {
        let topo = Topology::mesh(5, 5);
        let tm = TurnModel::new(&topo, TurnModelKind::WestFirst);
        for s in topo.nodes() {
            for t in topo.nodes() {
                if s == t {
                    continue;
                }
                let mut buf = [LinkId(0); 2];
                let hs = tm.next_hops(s, t, &mut buf);
                let (sx, _) = topo.coord(s).unwrap();
                let (tx, _) = topo.coord(t).unwrap();
                if tx < sx {
                    // Only the west link may be offered while west remains.
                    for &l in hs {
                        let (nx, _) = topo.coord(topo.link(l).dst).unwrap();
                        assert!(nx < sx, "west-first must go west first");
                    }
                }
            }
        }
    }

    #[test]
    fn turn_model_network_is_deadlock_free_under_load() {
        // Torture: high load, 1 VC, long run — a turn-model network must
        // never wedge (that's the whole point of proactive avoidance).
        let topo = Topology::mesh(4, 4);
        for kind in [TurnModelKind::WestFirst, TurnModelKind::NegativeFirst] {
            let mut sim = Sim::new(
                topo.clone(),
                SimConfig {
                    vns: 1,
                    vcs_per_vn: 1,
                    num_classes: 1,
                    watchdog_threshold: 10_000,
                    ..SimConfig::default()
                },
                Box::new(TurnModel::new(&topo, kind)),
                Box::new(NoMechanism),
                Box::new(SyntheticTraffic::new(
                    SyntheticPattern::UniformRandom,
                    0.4,
                    1,
                    9,
                )),
            );
            sim.run(40_000);
            assert!(!sim.stats().deadlocked(), "{kind:?} wedged");
            assert!(sim.stats().ejected > 2_000);
        }
    }

    #[test]
    fn adaptivity_is_partial() {
        // From (0,0) to (2,2), west-first offers both +x and +y.
        let topo = Topology::mesh(5, 5);
        let tm = TurnModel::new(&topo, TurnModelKind::WestFirst);
        let mut buf = [LinkId(0); 2];
        let east_then_north = [
            topo.link_between(NodeId(0), NodeId(1)).unwrap(),
            topo.link_between(NodeId(0), NodeId(5)).unwrap(),
        ];
        assert_eq!(
            tm.next_hops(NodeId(0), NodeId(12), &mut buf),
            east_then_north
        );
        // From (2,2) to (0,0), west-first forces pure west movement.
        assert_eq!(tm.next_hops(NodeId(12), NodeId(0), &mut buf).len(), 1);
    }
}
