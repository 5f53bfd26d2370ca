//! Routing algorithms (paper Table II).
//!
//! The routing function is consulted once per cycle per head packet and
//! returns *candidate moves* in preference order: an output link plus which
//! kind of downstream VC may be targeted. The allocation engine takes the
//! first candidate whose link and VC are free.
//!
//! | Implementation | Paper usage |
//! |---|---|
//! | [`FullyAdaptive`] | DRAIN and SPIN ("fully adaptive random"), Fig 3's non-deadlock-free network |
//! | [`EscapeVcRouting`] | escape-VC baseline: adaptive VCs + restricted escape VC (DoR or up*/down*) |
//! | [`UpDownAll`] | pure up*/down* network (Fig 5) |
//! | [`DorAll`] | dimension-order reference on fault-free meshes |
//! | [`TurnModel`] | west-first / negative-first turn models (Table I row 1) |

mod adaptive;
mod dor;
mod escape;
mod turnmodel;
mod updown_all;

pub use adaptive::{FullyAdaptive, DEFAULT_DEFLECT_AFTER};
pub use dor::{dor_next_hop, DorAll, DorTable};
pub use escape::{EscapeKind, EscapeVcRouting};
pub use turnmodel::{TurnModel, TurnModelKind};
pub use updown_all::UpDownAll;

use std::sync::Arc;

use drain_topology::{distance::DistanceMap, LinkId, NodeId};

/// Which downstream VCs a candidate move may claim.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TargetVc {
    /// Prefer non-escape VCs, fall back to the escape VC.
    Any,
    /// Only the escape VC (index 0 of the packet's VN).
    EscapeOnly,
    /// Only non-escape VCs.
    NonEscapeOnly,
}

/// One candidate move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// Output link to traverse.
    pub link: LinkId,
    /// Downstream VC kind that may be claimed.
    pub target: TargetVc,
}

/// Inputs to a routing decision.
#[derive(Clone, Copy, Debug)]
pub struct RouteCtx {
    /// Router the packet currently occupies.
    pub cur: NodeId,
    /// Packet destination.
    pub dest: NodeId,
    /// Link the packet arrived on (`None` right after injection).
    pub arrived_via: Option<LinkId>,
    /// Whether the packet is restricted to escape VCs (it occupies an
    /// escape VC and the configuration is escape-sticky).
    pub in_escape: bool,
    /// How long the packet has been waiting in its current buffer —
    /// adaptive routings may widen their candidate set under pressure.
    pub blocked_for: u64,
    /// Deterministic tie-break sample (rotates adaptive choices).
    pub sample: u64,
}

/// How a routing's candidate *set* evolves while a head packet stays put,
/// as a function of `RouteCtx::blocked_for` (all other context fields are
/// frozen while the packet occupies the same VC). The wake-driven Phase A
/// scheduler (see `state.rs`) may park a blocked head and skip re-routing
/// it only if the set cannot silently change under it.
///
/// `sample` must only *reorder* candidates (the standard `push_rotated`
/// idiom); a routing whose set membership depends on `sample` must report
/// [`WakeProfile::Unstable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeProfile {
    /// The candidate set is independent of `blocked_for`: once computed
    /// it stays valid until the packet moves.
    Stable,
    /// The set is constant below the threshold and constant (possibly
    /// wider) at/above it: valid until `blocked_for` crosses the value.
    WidensAt(u64),
    /// No guarantee — the scheduler must re-route such heads every cycle.
    Unstable,
}

/// A routing algorithm.
///
/// Implementations must be deterministic functions of the context (the
/// `sample` field carries all randomness) so simulations are reproducible.
pub trait Routing: Send {
    /// Short human-readable name (e.g. `"adaptive"`).
    fn name(&self) -> &str;

    /// Appends candidate moves for `ctx` to `out` in preference order.
    /// An empty result means the packet cannot move this cycle (it will be
    /// retried every cycle).
    fn candidates(&self, ctx: &RouteCtx, out: &mut Vec<Candidate>);

    /// How the candidate set depends on `blocked_for` (see
    /// [`WakeProfile`]). The default is the conservative answer: never
    /// park, re-route every cycle.
    fn wake_profile(&self) -> WakeProfile {
        WakeProfile::Unstable
    }

    /// The all-pairs [`DistanceMap`] the routing was built on, if it keeps
    /// one. The simulator core adopts this map for its own distance
    /// queries instead of building a second one, so a routing that
    /// returns a map must have built it from the simulated topology. The
    /// default is `None`: the core builds its own.
    fn distance_map(&self) -> Option<&Arc<DistanceMap>> {
        None
    }
}

/// Rotates `links` by `sample` into `out` as candidates with `target` —
/// the standard way implementations randomize tie-breaks.
pub(crate) fn push_rotated(
    links: &[LinkId],
    sample: u64,
    target: TargetVc,
    out: &mut Vec<Candidate>,
) {
    if links.is_empty() {
        return;
    }
    let n = links.len();
    let start = (sample % n as u64) as usize;
    for i in 0..n {
        out.push(Candidate {
            link: links[(start + i) % n],
            target,
        });
    }
}
