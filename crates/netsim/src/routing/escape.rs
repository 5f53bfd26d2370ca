//! The escape-VC baseline's composite routing.
//!
//! Non-escape VCs use fully adaptive minimal routing; the escape VC uses a
//! restricted deadlock-free function — dimension-order on fault-free meshes
//! or up*/down* on irregular topologies (paper §V-B). Any blocked packet
//! can fall back to the escape VC (its candidates are appended after the
//! adaptive ones), which is what makes the scheme deadlock-free by Duato's
//! theory; the escape VC is sticky.

use std::sync::Arc;

use drain_topology::{distance::DistanceMap, updown::UpDownRouting, IntoSharedTopology};

use super::{push_rotated, Candidate, DorTable, RouteCtx, Routing, TargetVc, WakeProfile};

/// Which restricted routing drives the escape VC.
#[derive(Clone, Debug)]
pub enum EscapeKind {
    /// Dimension-order XY via a precomputed next-hop table (only valid on
    /// full meshes).
    Dor(DorTable),
    /// Topology-agnostic up*/down*.
    UpDown(UpDownRouting),
}

/// Composite adaptive + restricted-escape routing.
#[derive(Clone, Debug)]
pub struct EscapeVcRouting {
    dmap: Arc<DistanceMap>,
    escape: EscapeKind,
}

impl EscapeVcRouting {
    /// Escape VC uses DoR: the paper's configuration on the fault-free
    /// mesh.
    ///
    /// # Panics
    ///
    /// Panics if `topo` lacks mesh coordinates.
    pub fn with_dor(topo: impl IntoSharedTopology) -> Self {
        let topo = topo.into_shared();
        assert!(
            topo.coord(drain_topology::NodeId(0)).is_some(),
            "DoR escape requires a mesh topology"
        );
        EscapeVcRouting {
            dmap: Arc::new(DistanceMap::new(&topo)),
            escape: EscapeKind::Dor(DorTable::new(&topo)),
        }
    }

    /// Escape VC uses up*/down*: the paper's configuration on irregular
    /// (faulty) topologies.
    pub fn with_updown(topo: impl IntoSharedTopology) -> Self {
        let topo = topo.into_shared();
        EscapeVcRouting {
            dmap: Arc::new(DistanceMap::new(&topo)),
            escape: EscapeKind::UpDown(UpDownRouting::new(&topo)),
        }
    }

    /// Chooses DoR when the mesh is intact, up*/down* otherwise — the
    /// paper's per-fault-count configuration rule.
    pub fn auto(topo: impl IntoSharedTopology, full_mesh: bool) -> Self {
        if full_mesh {
            Self::with_dor(topo)
        } else {
            Self::with_updown(topo)
        }
    }

    fn escape_candidates(&self, ctx: &RouteCtx, fresh_entry: bool, out: &mut Vec<Candidate>) {
        match &self.escape {
            EscapeKind::Dor(table) => {
                if let Some(link) = table.next_hop(ctx.cur, ctx.dest) {
                    out.push(Candidate {
                        link,
                        target: TargetVc::EscapeOnly,
                    });
                }
            }
            EscapeKind::UpDown(ud) => {
                // A packet already in the escape VC carries the up*/down*
                // phase implied by its arrival link; a packet *entering*
                // the escape network starts fresh (its previous hops were
                // on adaptive VCs, outside the escape dependency graph).
                let phase = if fresh_entry {
                    drain_topology::updown::Phase::CanUp
                } else {
                    ud.phase_after(ctx.arrived_via)
                };
                let links = ud.next_hops(ctx.cur, ctx.dest, phase);
                push_rotated(links, ctx.sample, TargetVc::EscapeOnly, out);
            }
        }
    }
}

impl Routing for EscapeVcRouting {
    fn name(&self) -> &str {
        match self.escape {
            EscapeKind::Dor(_) => "escape-vc(dor)",
            EscapeKind::UpDown(_) => "escape-vc(updown)",
        }
    }

    fn candidates(&self, ctx: &RouteCtx, out: &mut Vec<Candidate>) {
        if ctx.in_escape {
            // Restricted escape routing only.
            self.escape_candidates(ctx, false, out);
        } else {
            // Adaptive VCs first, escape fallback last.
            push_rotated(
                self.dmap.productive_links(ctx.cur, ctx.dest),
                ctx.sample,
                TargetVc::NonEscapeOnly,
                out,
            );
            self.escape_candidates(ctx, true, out);
        }
    }

    fn wake_profile(&self) -> WakeProfile {
        // Both branches depend only on cur/dest/arrived_via/in_escape —
        // frozen while the packet stays put; `sample` only rotates.
        WakeProfile::Stable
    }

    fn distance_map(&self) -> Option<&Arc<DistanceMap>> {
        Some(&self.dmap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_topology::faults::FaultInjector;
    use drain_topology::{NodeId, Topology};

    #[test]
    fn adaptive_first_escape_last() {
        let topo = Topology::mesh(4, 4);
        let r = EscapeVcRouting::with_dor(&topo);
        let mut out = Vec::new();
        r.candidates(
            &RouteCtx {
                cur: NodeId(0),
                dest: NodeId(15),
                arrived_via: None,
                in_escape: false,
                blocked_for: 0,
                sample: 0,
            },
            &mut out,
        );
        assert!(out.len() >= 2);
        assert_eq!(out.last().unwrap().target, TargetVc::EscapeOnly);
        assert!(out[..out.len() - 1]
            .iter()
            .all(|c| c.target == TargetVc::NonEscapeOnly));
    }

    #[test]
    fn escape_only_when_in_escape() {
        let topo = Topology::mesh(4, 4);
        let r = EscapeVcRouting::with_dor(&topo);
        let mut out = Vec::new();
        r.candidates(
            &RouteCtx {
                cur: NodeId(5),
                dest: NodeId(10),
                arrived_via: topo.link_between(NodeId(4), NodeId(5)),
                in_escape: true,
                blocked_for: 0,
                sample: 0,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].target, TargetVc::EscapeOnly);
    }

    #[test]
    fn updown_escape_always_routable() {
        let topo = FaultInjector::new(6)
            .remove_links(&Topology::mesh(6, 6), 8)
            .unwrap();
        let r = EscapeVcRouting::with_updown(&topo);
        let mut out = Vec::new();
        for cur in topo.nodes() {
            for dest in topo.nodes() {
                if cur == dest {
                    continue;
                }
                out.clear();
                r.candidates(
                    &RouteCtx {
                        cur,
                        dest,
                        arrived_via: None,
                        in_escape: false,
                        blocked_for: 0,
                        sample: 2,
                    },
                    &mut out,
                );
                assert!(
                    out.iter().any(|c| c.target == TargetVc::EscapeOnly),
                    "escape fallback must exist from {cur:?} to {dest:?}"
                );
            }
        }
    }

    #[test]
    fn auto_picks_by_mesh_state() {
        let mesh = Topology::mesh(4, 4);
        assert_eq!(EscapeVcRouting::auto(&mesh, true).name(), "escape-vc(dor)");
        let faulty = FaultInjector::new(0).remove_links(&mesh, 2).unwrap();
        assert_eq!(
            EscapeVcRouting::auto(&faulty, false).name(),
            "escape-vc(updown)"
        );
    }
}
