//! The simulator's mutable state and its allocation engine.
//!
//! [`SimCore`] owns everything a cycle touches: the topology, VC buffers,
//! link timers, injection/ejection queues, the packet slab, the routing
//! function, statistics and the RNG. The driver in [`crate::sim`] sequences
//! endpoints → mechanism → allocation each cycle; mechanisms and endpoint
//! models receive `&mut SimCore` and use the accessors here.
//!
//! # Memory layout
//!
//! VC state is a struct-of-arrays arena: one contiguous per-field buffer
//! (`occ`, `ready_at`, `free_at`, `entered_at`) indexed by the link-major
//! VC id, plus *hot mirrors* of the occupant's immutable fields (`dest`,
//! `class`, `len_flits`) copied in when a packet occupies the slot. The
//! per-cycle allocation sweep reads only these arrays — never the packet
//! slab, which grows with the live population (megabytes under
//! saturation) and would turn every visit into a cache miss. Packet
//! payloads live in a [`PacketSlab`] freelist slab; in steady state no
//! per-packet heap allocation happens at all. See DESIGN.md, "Kernel
//! memory layout", for the ownership rules and the invariants guarding
//! each buffer.
//!
//! Timing model (virtual cut-through, single packet per VC — Table II):
//!
//! * A grant at cycle `t` moves the packet's occupancy to the downstream VC
//!   immediately; it becomes eligible for allocation there at
//!   `t + link_latency + router_latency`.
//! * The traversed link is busy until `t + len_flits` (serialization), and
//!   the vacated VC can accept a new packet only from `t + len_flits`
//!   (the tail must fully drain).
//! * One grant per output link per cycle; one ejection per (node, class)
//!   per cycle.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::sync::Arc;

use drain_topology::{distance::DistanceMap, IntoSharedTopology, LinkId, NodeId, Topology};

use crate::config::SimConfig;
use crate::mechanism::{ForcedKind, ForcedMove};
use crate::metrics::{Phase, PhaseProfiler};
use crate::packet::{Location, MessageClass, Packet, PacketId, PacketSlab};
use crate::rng::{mix, DrawSite, RngMode, NUM_DRAW_SITES};
use crate::routing::{Candidate, RouteCtx, Routing, TargetVc, WakeProfile};
use crate::stats::{Stats, WakeCounters};
use crate::telemetry::Telemetry;
use crate::trace::{TraceEvent, Tracer};

/// Reference to one VC buffer: the input port of `link`'s head router,
/// virtual network `vn`, VC `vc` (0 = escape).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VcRef {
    /// Input link whose buffer this is.
    pub link: LinkId,
    /// Virtual network index.
    pub vn: u8,
    /// VC index within the VN (0 = escape).
    pub vc: u8,
}

/// By-value snapshot of one VC buffer's state.
///
/// The simulator keeps VC state in struct-of-arrays buffers (see the
/// module docs); this struct is the gathered view handed to checkers,
/// mechanisms and diagnostics by [`SimCore::vc`]. It is a copy — mutating
/// it does not touch the simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct VcState {
    /// Occupying packet, if any.
    pub occ: Option<PacketId>,
    /// Cycle from which the occupant may be allocated onward.
    pub ready_at: u64,
    /// Cycle from which an empty buffer may accept a new packet.
    pub free_at: u64,
    /// Cycle the current occupant arrived (for timeout counters).
    pub entered_at: u64,
}

/// Sentinel in the `vc_occ` array for an empty VC.
const EMPTY: u32 = u32::MAX;

/// Outcome info for a delivered packet, handed to ejection-queue consumers.
#[derive(Clone, Debug)]
pub struct Delivered {
    /// The packet, removed from the network.
    pub packet: Packet,
    /// Its id while it was live (now retired).
    pub id: PacketId,
}

/// Where a granted link request moves its packet *from*.
#[derive(Clone, Copy, Debug)]
enum MoveSource {
    /// A VC buffer, by link-major arena index.
    Vc(usize),
    /// The head of a per-(node, class) injection queue.
    Injection { node: NodeId, class: MessageClass },
}

/// One pending request for an output link.
#[derive(Clone, Copy, Debug)]
struct LinkRequest {
    source: MoveSource,
    pid: PacketId,
    target: TargetVc,
    /// How long the requester has been waiting (age-based arbitration).
    blocked_for: u64,
}

/// One wake-list entry: slot `slot` (link-major VC index) subscribed to
/// vacates on an output link, `j` being that link's position among the
/// slot's router's out-links (the bit it holds in `sub_mask[slot]`).
#[derive(Clone, Copy, Debug)]
struct WakeSub {
    slot: u32,
    j: u8,
}

/// Park-profitability gate window (cycles). At each boundary the core
/// compares the window's parks against the visits they saved (skips) and
/// stops parking when a park buys fewer than [`GATE_MIN_SKIPS_PER_PARK`]
/// skips — on workloads whose blocked episodes last only a cycle or two
/// (a healthy mesh past saturation) the park/wake bookkeeping costs more
/// than the routing it skips. Parking choice never affects results (a
/// `Stall` is exactly the dense scan's behaviour), so the gate is purely
/// a speed knob; it re-probes every [`GATE_PROBE_PERIOD`]-th window.
const GATE_WINDOW: u64 = 2_048;
/// A gated-off scheduler re-enables parking every this many windows to
/// re-measure profitability (workload phases change).
const GATE_PROBE_PERIOD: u64 = 8;
/// Minimum skips a park must earn in a window to keep parking on.
const GATE_MIN_SKIPS_PER_PARK: u64 = 2;
/// Windows with fewer parks than this are too quiet to judge (and cost
/// nothing): the gate stays on.
const GATE_MIN_PARKS: u64 = 64;

/// A parking decision for one blocked head, computed against pre-commit
/// state by [`SimCore::phase_a_route_or_park`] and applied by
/// [`SimCore::apply_park`]. `subs` is a bitmask over the head router's
/// out-link positions to subscribe to.
#[derive(Clone, Copy, Debug)]
struct ParkNote {
    idx: u32,
    wake_at: u64,
    subs: u32,
}

/// Outcome of one fused Phase A routing + parking decision
/// ([`SimCore::phase_a_route_or_park`]).
#[derive(Clone, Copy, Debug)]
enum PhaseAOutcome {
    /// Request this output link (target-VC kind, `blocked_for` age).
    Route(LinkId, TargetVc, u64),
    /// No feasible move; park the head under this note.
    Park(ParkNote),
    /// No feasible move; the head stays active and is re-routed next
    /// cycle (dense mode, unparkable routing, or a park whose wake would
    /// fire before it could skip a single visit).
    Stall,
}

/// The simulator state plus allocation engine.
pub struct SimCore {
    topo: Arc<Topology>,
    config: SimConfig,
    routing: Box<dyn Routing>,
    /// All-pairs distances for misroute accounting and the invariant
    /// checks: the routing's own map when it keeps one (one build per
    /// simulation), otherwise built here.
    dmap: Arc<DistanceMap>,
    /// VC arena, link-major: index `link * total_vcs + vn * vcs_per_vn +
    /// vc` into each of the struct-of-arrays buffers below. Occupant id,
    /// or [`EMPTY`].
    vc_occ: Vec<u32>,
    /// Cycle from which the occupant may be allocated onward.
    vc_ready_at: Vec<u64>,
    /// Cycle from which an empty buffer may accept a new packet.
    vc_free_at: Vec<u64>,
    /// Cycle the current occupant arrived.
    vc_entered_at: Vec<u64>,
    /// Hot mirror of the occupant's destination (valid while occupied).
    vc_dest: Vec<u16>,
    /// Hot mirror of the occupant's message class (valid while occupied).
    vc_class: Vec<u8>,
    /// Hot mirror of the occupant's length in flits (valid while occupied).
    vc_len: Vec<u32>,
    /// Per unidirectional link: number of occupied VCs at its input port
    /// (lets the allocation sweep skip whole links).
    link_occ: Vec<u32>,
    /// Occupancy bitmap over link-major VC indices: bit `i % 64` of word
    /// `i / 64` is set iff index `i` is occupied.
    occ_bits: Vec<u64>,
    /// Per unidirectional link: busy (serializing) until this cycle.
    link_busy: Vec<u64>,
    /// Per (node, class) injection queues.
    inj: Vec<VecDeque<PacketId>>,
    /// Per (node, class) ejection queues.
    ej: Vec<VecDeque<PacketId>>,
    /// Live packets.
    packets: PacketSlab,
    /// Statistics.
    pub stats: Stats,
    /// Current cycle.
    cycle: u64,
    /// Active-VC index, dense half: the link-major array index of every
    /// occupied VC, in arbitrary order (swap-remove keeps vacate O(1)).
    active: Vec<u32>,
    /// Active-VC index, slot half: `active_pos[idx]` is the position of
    /// `idx` inside `active`, or `u32::MAX` when the VC is empty.
    active_pos: Vec<u32>,
    /// Cached `config.total_vcs()` (the link-major stride).
    stride: usize,
    /// Number of non-empty injection queues (skips the Phase A injection
    /// sweep and gates fast-forward).
    nonempty_inj: usize,
    /// Hot mirror of each injection queue head's destination (valid while
    /// the queue is non-empty) — the Phase A injection sweep reads this
    /// instead of dereferencing the packet slab.
    inj_head_dest: Vec<u16>,
    /// Packets parked in ejection queues (counter form of
    /// [`SimCore::ejection_backlog`]).
    ej_backlog: usize,
    rng: ChaCha8Rng,
    /// Per-[`DrawSite`] tie-break samples produced so far (either mode;
    /// surfaced as `drain_rng_draws_total{site,mode}`).
    rng_draws: [u64; NUM_DRAW_SITES],
    /// Bitmap over (node, class) ejection-queue indices with at least one
    /// parked packet (lets consumers pop deliveries without sweeping
    /// every queue; ascending bit order is the sweep order).
    ej_bits: Vec<u64>,
    /// Decode table: owning link of each link-major VC index (avoids a
    /// runtime division in the Phase A sweep).
    idx_link: Vec<u32>,
    /// Decode table: VC-within-VN of each link-major VC index.
    idx_vc: Vec<u8>,
    /// Scratch buffers reused across cycles.
    cand_buf: Vec<Candidate>,
    req_buf: Vec<Vec<LinkRequest>>,
    /// Bitmap over links with at least one pending request this cycle;
    /// ascending set-bit order replaces sorting a link list.
    req_bits: Vec<u64>,
    /// Ejection-request scratch.
    eject_buf: Vec<(usize, usize, PacketId)>,
    /// Wake scheduler: per-VC wake deadline. `0` = fresh/active (route on
    /// visit); `> now` = parked (Phase A skips routing; in stream mode the
    /// head still consumes its serial RNG draw, in keyed mode it draws
    /// nothing); `0 < v <= now` = woken, routes on the next visit.
    vc_wake_at: Vec<u64>,
    /// Wake scheduler: per-output-link subscriber lists, fired (drained)
    /// by [`SimCore::vacate_slot`] on that link's input buffers.
    wake_subs: Vec<Vec<WakeSub>>,
    /// Wake scheduler: per-slot bitmask over the slot's router's out-link
    /// positions `j` with a live entry in that link's `wake_subs` list.
    /// Invariant: bit `j` set ⟺ exactly one `(slot, j)` entry exists —
    /// a *slot* property that survives occupant turnover, so stale
    /// entries never accumulate and re-parking never duplicates them.
    sub_mask: Vec<u32>,
    /// Wake scheduler: slots vacated this cycle whose link has
    /// subscribers, awaiting the end-of-cycle [`SimCore::flush_wakes`].
    /// Deferring the fire past the commit phase suppresses wakes for
    /// slots re-occupied in the same cycle: a transient free interval
    /// inside one cycle is invisible to Phase A, so never firing for it
    /// is exact and saves the whole spurious wake→route→re-park round
    /// trip.
    pending_fires: Vec<u32>,
    /// Park-profitability gate (see [`GATE_WINDOW`]): `false` suspends
    /// *new* parks (already-parked heads still wake normally).
    park_gate: bool,
    /// Next cycle at which the gate re-evaluates.
    gate_next: u64,
    /// `wake.parks` at the last gate evaluation.
    gate_parks: u64,
    /// `wake.skips` at the last gate evaluation.
    gate_skips: u64,
    /// Routing wake profile, cached at construction (the routing function
    /// never changes afterwards).
    wake_profile: WakeProfile,
    /// Wake scheduler accounting (outside `Stats`: see [`WakeCounters`]).
    wake: WakeCounters,
    /// Structured event bus (see [`crate::trace`]).
    tracer: Tracer,
    /// Telemetry sampler (see [`crate::telemetry`]).
    telem: Telemetry,
    /// Kernel phase profiler (see [`crate::metrics`]). Pure observer:
    /// reads the wall clock, writes only its own accumulators.
    prof: PhaseProfiler,
}

impl SimCore {
    /// Builds a core for `topo` with the given routing function.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`SimConfig::validate`]), or if
    /// the routing's distance map (see [`Routing::distance_map`]) was
    /// built for a different topology: its node ids and link ids would
    /// name other routers and links than the simulation's.
    pub fn new(
        topo: impl IntoSharedTopology,
        config: SimConfig,
        routing: Box<dyn Routing>,
    ) -> Self {
        config.validate();
        let topo = topo.into_shared();
        let dmap = routing.distance_map().map_or_else(
            || Arc::new(DistanceMap::new(&topo)),
            |map| {
                assert!(
                    map.is_built_for(&topo),
                    "routing `{}` was built for another topology ({} routers, {} links) \
                     than the simulated `{}` ({} routers, {} links)",
                    routing.name(),
                    map.num_nodes(),
                    map.num_links(),
                    topo.name(),
                    topo.num_nodes(),
                    topo.num_unidirectional_links(),
                );
                Arc::clone(map)
            },
        );
        let m = topo.num_unidirectional_links();
        let n = topo.num_nodes();
        let total_vcs = config.total_vcs();
        let classes = config.num_classes;
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let tracer = Tracer::new(&config.trace);
        let telem = Telemetry::new(&config.trace, m, n);
        let prof = PhaseProfiler::new(config.metrics.profile_period);
        let slots = m * total_vcs;
        SimCore {
            vc_occ: vec![EMPTY; slots],
            vc_ready_at: vec![0; slots],
            vc_free_at: vec![0; slots],
            vc_entered_at: vec![0; slots],
            vc_dest: vec![0; slots],
            vc_class: vec![0; slots],
            vc_len: vec![0; slots],
            link_occ: vec![0; m],
            occ_bits: vec![0; slots.div_ceil(64)],
            link_busy: vec![0; m],
            inj: (0..n * classes).map(|_| VecDeque::new()).collect(),
            ej: (0..n * classes).map(|_| VecDeque::new()).collect(),
            packets: PacketSlab::new(),
            stats: Stats::new(),
            cycle: 0,
            active: Vec::new(),
            active_pos: vec![u32::MAX; slots],
            stride: total_vcs,
            nonempty_inj: 0,
            inj_head_dest: vec![0; n * classes],
            ej_backlog: 0,
            rng,
            rng_draws: [0; NUM_DRAW_SITES],
            ej_bits: vec![0; (n * classes).div_ceil(64)],
            idx_link: (0..slots).map(|i| (i / total_vcs) as u32).collect(),
            idx_vc: (0..slots)
                .map(|i| ((i % total_vcs) % config.vcs_per_vn) as u8)
                .collect(),
            cand_buf: Vec::new(),
            req_buf: (0..m).map(|_| Vec::new()).collect(),
            req_bits: vec![0; m.div_ceil(64)],
            eject_buf: Vec::new(),
            vc_wake_at: vec![0; slots],
            wake_subs: (0..m).map(|_| Vec::new()).collect(),
            sub_mask: vec![0; slots],
            pending_fires: Vec::new(),
            park_gate: true,
            gate_next: GATE_WINDOW,
            gate_parks: 0,
            gate_skips: 0,
            wake_profile: routing.wake_profile(),
            wake: WakeCounters::default(),
            tracer,
            telem,
            prof,
            dmap,
            topo,
            config,
            routing,
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Shared handle to the topology (components that keep their own
    /// reference — routing functions, drain paths — clone this instead of
    /// deep-copying the graph).
    pub fn shared_topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Forces the idle-cycle fast-forward gate on or off (see
    /// [`SimConfig::fast_forward`]).
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.config.fast_forward = enabled;
    }

    /// The routing function's name.
    pub fn routing_name(&self) -> &str {
        self.routing.name()
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of packets currently inside VC buffers.
    pub fn packets_in_network(&self) -> usize {
        self.active.len()
    }

    /// Number of live packets anywhere (queues + network).
    pub fn live_packets(&self) -> usize {
        self.packets.len()
    }

    /// Distance map used for misroute accounting and the invariant
    /// checks — the same allocation as the routing's
    /// [`Routing::distance_map`] when the routing keeps one.
    pub fn distance_map(&self) -> &Arc<DistanceMap> {
        &self.dmap
    }

    /// The routing function.
    pub fn routing(&self) -> &dyn Routing {
        &*self.routing
    }

    /// The structured event bus (captured events, emission counters).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable event bus (install sinks, drain the memory sink).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Whether event tracing is enabled. Hot paths use this as the guard
    /// and construct events only behind it.
    #[inline(always)]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Emits one trace event (no-op when tracing is disabled). Intended
    /// for mechanisms and drivers; core hot paths emit directly behind
    /// [`SimCore::trace_enabled`].
    #[inline]
    pub fn trace_emit(&mut self, event: TraceEvent) {
        self.tracer.push(event);
    }

    /// The telemetry sampler (retained samples, cumulative counters).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telem
    }

    /// Mutable telemetry sampler (drain the sample series).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telem
    }

    /// The kernel phase profiler (sampled wall-time attribution; see
    /// [`crate::metrics::PhaseProfiler`]).
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.prof
    }

    /// Reconfigures the phase profiler's sampling cadence (0 disables;
    /// accumulated attribution is reset). Profiling is a pure observer,
    /// so flipping it mid-run cannot perturb results.
    pub fn set_profile_period(&mut self, period: u64) {
        self.config.metrics.profile_period = period;
        self.prof = PhaseProfiler::new(period);
    }

    /// Opens the profiler's view of `cycle` (no-op unless profiling).
    #[inline]
    pub(crate) fn prof_begin_cycle(&mut self, cycle: u64) {
        self.prof.begin_cycle(cycle);
    }

    /// Attributes wall time since the last mark to `phase` (no-op unless
    /// the cycle is sampled).
    #[inline]
    pub(crate) fn prof_mark(&mut self, phase: Phase) {
        self.prof.mark(phase);
    }

    /// Closes the profiler's view of the cycle.
    #[inline]
    pub(crate) fn prof_end_cycle(&mut self) {
        self.prof.end_cycle();
    }

    #[inline]
    fn vc_index(&self, r: VcRef) -> usize {
        r.link.index() * self.stride + r.vn as usize * self.config.vcs_per_vn + r.vc as usize
    }

    /// The [`VcRef`] addressed by a link-major VC array index (inverse of
    /// the layout used by [`SimCore::occupied_vc_indices`]).
    pub fn vc_ref_of_index(&self, idx: usize) -> VcRef {
        let rem = idx % self.stride;
        VcRef {
            link: LinkId((idx / self.stride) as u32),
            vn: (rem / self.config.vcs_per_vn) as u8,
            vc: (rem % self.config.vcs_per_vn) as u8,
        }
    }

    /// Link-major array indices of every occupied VC, in arbitrary order.
    ///
    /// This is the live active-VC index: O(occupied) to walk instead of
    /// O(links × VCs). Callers that need the dense sweep's deterministic
    /// order must sort a copy ascending (link-major indices sort exactly
    /// like the `link, vn, vc` loop nest). Map entries back to buffers
    /// with [`SimCore::vc_ref_of_index`].
    pub fn occupied_vc_indices(&self) -> &[u32] {
        &self.active
    }

    /// Occupancy bitmap over link-major VC indices: bit `i % 64` of word
    /// `i / 64` is set iff the VC at index `i` is occupied.
    ///
    /// The bitmap *is* the dense sweep order in O(occupied/64) words:
    /// iterating set bits ascending visits occupied buffers exactly as the
    /// `link, vn, vc` loop nest would, with no copying or sorting. SPIN's
    /// suspect scan uses this for its circular timeout sweep; gather the
    /// per-VC fields with [`SimCore::vc_state_of_index`].
    pub fn occupied_vc_bitmap(&self) -> &[u64] {
        &self.occ_bits
    }

    /// Cross-validates the occupancy indexes against the dense VC arena:
    /// every occupied VC must appear exactly once in the active index, the
    /// per-link occupancy counts and the occupancy bitmap must agree with
    /// the arena, and the hot mirrors (`dest`, `class`, `len_flits`) must
    /// match the occupant in the packet slab. Used by the deep invariant
    /// sweep.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch found.
    pub fn validate_active_index(&self) -> Result<(), String> {
        let occupied = self.vc_occ.iter().filter(|&&o| o != EMPTY).count();
        if occupied != self.active.len() {
            return Err(format!(
                "active index holds {} entries but {} VCs are occupied",
                self.active.len(),
                occupied
            ));
        }
        for (idx, &occ) in self.vc_occ.iter().enumerate() {
            let pos = self.active_pos[idx];
            match (occ != EMPTY, pos != u32::MAX) {
                (true, false) => {
                    return Err(format!(
                        "occupied VC {:?} missing from active index",
                        self.vc_ref_of_index(idx)
                    ));
                }
                (false, true) => {
                    return Err(format!(
                        "empty VC {:?} present in active index",
                        self.vc_ref_of_index(idx)
                    ));
                }
                (true, true) => {
                    if self.active.get(pos as usize) != Some(&(idx as u32)) {
                        return Err(format!(
                            "active index slot mismatch for VC {:?} (pos {})",
                            self.vc_ref_of_index(idx),
                            pos
                        ));
                    }
                }
                (false, false) => {}
            }
            if (self.occ_bits[idx / 64] >> (idx % 64)) & 1 != u64::from(occ != EMPTY) {
                return Err(format!(
                    "occupancy bitmap disagrees with arena at VC {:?}",
                    self.vc_ref_of_index(idx)
                ));
            }
            if occ != EMPTY {
                let Some(p) = self.packets.try_get(PacketId(occ)) else {
                    return Err(format!(
                        "VC {:?} holds dead packet id p{occ}",
                        self.vc_ref_of_index(idx)
                    ));
                };
                if (p.dest.0, p.class.0, p.len_flits)
                    != (self.vc_dest[idx], self.vc_class[idx], self.vc_len[idx])
                {
                    return Err(format!(
                        "stale hot mirror at VC {:?}: mirror (dest {}, class {}, len {}) \
                         vs packet (dest {}, class {}, len {})",
                        self.vc_ref_of_index(idx),
                        self.vc_dest[idx],
                        self.vc_class[idx],
                        self.vc_len[idx],
                        p.dest.0,
                        p.class.0,
                        p.len_flits,
                    ));
                }
            }
        }
        for li in 0..self.link_occ.len() {
            let base = li * self.stride;
            let count = self.vc_occ[base..base + self.stride]
                .iter()
                .filter(|&&o| o != EMPTY)
                .count() as u32;
            if count != self.link_occ[li] {
                return Err(format!(
                    "link {li} occupancy count {} but {count} VCs are occupied",
                    self.link_occ[li]
                ));
            }
        }
        Ok(())
    }

    /// Registers `idx` as occupied in every occupancy index (active list,
    /// per-link count, bitmap).
    #[inline]
    fn activate(&mut self, idx: usize) {
        debug_assert_eq!(self.active_pos[idx], u32::MAX, "VC already indexed");
        self.active_pos[idx] = self.active.len() as u32;
        self.active.push(idx as u32);
        self.link_occ[idx / self.stride] += 1;
        self.occ_bits[idx / 64] |= 1 << (idx % 64);
    }

    /// Removes `idx` from every occupancy index (swap-remove, O(1)).
    #[inline]
    fn deactivate(&mut self, idx: usize) {
        let pos = self.active_pos[idx] as usize;
        debug_assert_eq!(self.active[pos], idx as u32, "active index corrupted");
        self.active_pos[idx] = u32::MAX;
        let last = self.active.pop().expect("active list is non-empty");
        if pos < self.active.len() {
            self.active[pos] = last;
            self.active_pos[last as usize] = pos as u32;
        }
        self.link_occ[idx / self.stride] -= 1;
        self.occ_bits[idx / 64] &= !(1 << (idx % 64));
    }

    /// Marks `idx` occupied by `pid` and fills the hot mirrors from the
    /// packet slab (the one slab read per occupation; every later sweep
    /// visit reads only the arena). `free_at` is left untouched — an
    /// occupied buffer's drain deadline belongs to its previous tenant.
    #[inline]
    fn occupy_slot(&mut self, idx: usize, pid: PacketId, ready_at: u64, entered_at: u64) {
        let p = self.packets.get(pid);
        let (dest, class, len) = (p.dest.0, p.class.0, p.len_flits);
        self.vc_occ[idx] = pid.0;
        self.vc_ready_at[idx] = ready_at;
        self.vc_entered_at[idx] = entered_at;
        self.vc_dest[idx] = dest;
        self.vc_class[idx] = class;
        self.vc_len[idx] = len;
        // A new tenant starts fresh: any previous tenant's park deadline is
        // meaningless for it. Its subscription *entries* (sub_mask bits)
        // deliberately survive — they are slot properties; a stale one
        // fires at most one spurious wake and removes itself.
        self.vc_wake_at[idx] = 0;
        self.activate(idx);
    }

    /// Marks `idx` empty, accepting new packets from `free_at` (tail
    /// serialization). Every vacate in the simulator funnels through
    /// here, so queueing the slot for the end-of-cycle wake flush is
    /// exhaustive: no freeing event can bypass the parked subscribers.
    #[inline]
    fn vacate_slot(&mut self, idx: usize, free_at: u64) {
        self.vc_occ[idx] = EMPTY;
        self.vc_free_at[idx] = free_at;
        self.deactivate(idx);
        let li = self.idx_link[idx] as usize;
        if !self.wake_subs[li].is_empty() {
            self.pending_fires.push(idx as u32);
        }
    }

    /// End-of-cycle wake flush: fires the subscriber list of every link
    /// that had a slot vacate this cycle *and still holds it empty now*.
    /// A slot re-occupied by a later commit in the same cycle never
    /// presents a free buffer to any Phase A sweep, so skipping its fire
    /// is exact — its own eventual vacate re-queues the link. The
    /// delivered deadline is `max(min free_at, link_busy)`: every grant
    /// has committed by flush time and `link_busy` only moves forward, so
    /// no subscriber can use the link any earlier. Must run before the
    /// per-cycle validators (`validate_wake_parking` assumes no fire is
    /// in flight). Sorting makes the fire order — and thus the exact
    /// internal wake state — independent of commit order.
    pub(crate) fn flush_wakes(&mut self) {
        if self.pending_fires.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_fires);
        pending.sort_unstable();
        let mut i = 0;
        while i < pending.len() {
            let li = self.idx_link[pending[i] as usize] as usize;
            // Same-link slots are index-adjacent (link-major arena), so
            // one sorted run = one link.
            let mut free_at = u64::MAX;
            while i < pending.len() && self.idx_link[pending[i] as usize] as usize == li {
                let idx = pending[i] as usize;
                if self.vc_occ[idx] == EMPTY {
                    free_at = free_at.min(self.vc_free_at[idx]);
                }
                i += 1;
            }
            if free_at != u64::MAX {
                self.fire_wakes(li, free_at.max(self.link_busy[li]));
            }
        }
        pending.clear();
        self.pending_fires = pending;
    }

    /// Fires every subscription on output link `li`: the freed slot
    /// accepts new packets from `wake_at`, so each subscriber's wake
    /// deadline drops to at most that cycle (`min` — events only ever
    /// *advance* wakes; a fresh/active slot stays at 0). Entries are
    /// consumed: a wake is one-shot, re-parking re-subscribes.
    fn fire_wakes(&mut self, li: usize, wake_at: u64) {
        let mut subs = std::mem::take(&mut self.wake_subs[li]);
        self.wake.wakes += subs.len() as u64;
        for s in subs.drain(..) {
            self.sub_mask[s.slot as usize] &= !(1u32 << s.j);
            let w = &mut self.vc_wake_at[s.slot as usize];
            *w = (*w).min(wake_at);
        }
        // Hand the (empty) allocation back for reuse.
        self.wake_subs[li] = subs;
    }

    /// Snapshot of one VC buffer's state (see [`VcState`]).
    pub fn vc(&self, r: VcRef) -> VcState {
        self.vc_state_of_index(self.vc_index(r))
    }

    /// Snapshot of the VC at link-major array index `idx` (pairs with
    /// [`SimCore::occupied_vc_indices`] / [`SimCore::occupied_vc_bitmap`]
    /// without a round-trip through [`VcRef`]).
    pub fn vc_state_of_index(&self, idx: usize) -> VcState {
        let occ = self.vc_occ[idx];
        VcState {
            occ: (occ != EMPTY).then_some(PacketId(occ)),
            ready_at: self.vc_ready_at[idx],
            free_at: self.vc_free_at[idx],
            entered_at: self.vc_entered_at[idx],
        }
    }

    /// Shared access to a live packet.
    pub fn packet(&self, id: PacketId) -> &Packet {
        self.packets.get(id)
    }

    /// Shared access to a packet, or `None` if `id` is not live (used by
    /// the invariant checker to diagnose dangling ids gracefully).
    pub fn try_packet(&self, id: PacketId) -> Option<&Packet> {
        self.packets.try_get(id)
    }

    /// Iterator over all VC references of the network.
    pub fn vc_refs(&self) -> impl Iterator<Item = VcRef> + '_ {
        let vns = self.config.vns as u8;
        let vcs = self.config.vcs_per_vn as u8;
        self.topo.link_ids().flat_map(move |link| {
            (0..vns).flat_map(move |vn| (0..vcs).map(move |vc| VcRef { link, vn, vc }))
        })
    }

    #[inline]
    fn qidx(&self, node: NodeId, class: MessageClass) -> usize {
        node.index() * self.config.num_classes + class.index()
    }

    /// One tie-break sample for `site`, identity `id` (see
    /// [`crate::rng`]): the next serial stream draw in stream mode, the
    /// pure `mix(seed, cycle, site, id)` in keyed mode. The identity is
    /// ignored by the stream — order of calls is its key — and the
    /// stream is untouched by keyed mode.
    #[inline]
    fn draw_sample(&mut self, site: DrawSite, id: u64) -> u64 {
        self.rng_draws[site.index()] += 1;
        match self.config.rng_mode {
            RngMode::Stream => self.rng.gen::<u64>(),
            RngMode::Keyed => mix(self.config.seed, self.cycle, site, id),
        }
    }

    /// Per-[`DrawSite`] tie-break samples produced so far, in
    /// [`DrawSite::ALL`] order (either mode).
    pub fn rng_draw_counts(&self) -> [u64; NUM_DRAW_SITES] {
        self.rng_draws
    }

    /// A tie-break sample for a deadlock-freedom mechanism's stochastic
    /// choice, keyed by a mechanism-chosen identity (e.g. a router or
    /// epoch number). Rides the serial stream in stream mode — calling
    /// it shifts the draw schedule of everything after it, which is the
    /// coupling [`RngMode::Keyed`] exists to remove — and the dedicated
    /// [`DrawSite::Mechanism`] key family in keyed mode, where it is
    /// schedule-free. No built-in mechanism draws randomness today; the
    /// hook keeps future mechanism randomness off the routing streams.
    pub fn mechanism_sample(&mut self, id: u64) -> u64 {
        self.draw_sample(DrawSite::Mechanism, id)
    }

    /// Free slots in a node's per-class injection queue.
    pub fn injection_space(&self, node: NodeId, class: MessageClass) -> usize {
        self.config
            .inj_queue_capacity
            .saturating_sub(self.inj[self.qidx(node, class)].len())
    }

    /// Occupancy of a node's per-class injection queue.
    pub fn injection_len(&self, node: NodeId, class: MessageClass) -> usize {
        self.inj[self.qidx(node, class)].len()
    }

    /// Occupancy of a node's per-class ejection queue.
    pub fn ejection_len(&self, node: NodeId, class: MessageClass) -> usize {
        self.ej[self.qidx(node, class)].len()
    }

    /// Total packets currently parked in ejection queues (delivered but
    /// not yet consumed by the endpoint model).
    pub fn ejection_backlog(&self) -> usize {
        self.ej_backlog
    }

    /// Packet ids waiting in a node's per-class injection queue, head
    /// first (invariant checker and diagnostics).
    pub fn injection_queue(
        &self,
        node: NodeId,
        class: MessageClass,
    ) -> impl Iterator<Item = PacketId> + '_ {
        self.inj[self.qidx(node, class)].iter().copied()
    }

    /// Packet ids parked in a node's per-class ejection queue, head first
    /// (invariant checker and diagnostics).
    pub fn ejection_queue(
        &self,
        node: NodeId,
        class: MessageClass,
    ) -> impl Iterator<Item = PacketId> + '_ {
        self.ej[self.qidx(node, class)].iter().copied()
    }

    /// Iterator over `(id, packet)` for every live packet, wherever it is
    /// (queues or network).
    pub fn live_packet_iter(&self) -> impl Iterator<Item = (PacketId, &Packet)> {
        self.packets.iter()
    }

    /// Cycle until which `l` is serializing a packet (busy).
    pub fn link_busy_until(&self, l: LinkId) -> u64 {
        self.link_busy[l.index()]
    }

    /// Whether the per-class ejection queue has room for one more packet.
    pub fn ejection_has_space(&self, node: NodeId, class: MessageClass) -> bool {
        self.ej[self.qidx(node, class)].len() < self.config.ej_queue_capacity
    }

    /// Creates a packet in `src`'s injection queue. Returns `None` (and
    /// creates nothing) when the queue is full or `src == dest`.
    pub fn try_enqueue_packet(
        &mut self,
        src: NodeId,
        dest: NodeId,
        class: MessageClass,
        len_flits: u32,
        tag: u64,
    ) -> Option<PacketId> {
        if src == dest || self.injection_space(src, class) == 0 {
            return None;
        }
        let pid = self.packets.insert(Packet {
            src,
            dest,
            class,
            len_flits,
            birth_cycle: self.cycle,
            inject_cycle: u64::MAX,
            loc: Location::InjectionQueue(src),
            hops: 0,
            misroutes: 0,
            forced_hops: 0,
            tag,
        });
        let q = self.qidx(src, class);
        if self.inj[q].is_empty() {
            self.nonempty_inj += 1;
            self.inj_head_dest[q] = dest.0;
        }
        self.inj[q].push_back(pid);
        self.stats.generated += 1;
        Some(pid)
    }

    /// Enqueues a packet bypassing the injection-queue capacity bound.
    ///
    /// For control messages whose population is bounded elsewhere (e.g.
    /// coherence unblocks, at most one per MSHR): real designs provision
    /// reserved slots for them so that consuming the sink class can never
    /// block. Returns `None` only when `src == dest`.
    pub fn force_enqueue_packet(
        &mut self,
        src: NodeId,
        dest: NodeId,
        class: MessageClass,
        len_flits: u32,
        tag: u64,
    ) -> Option<PacketId> {
        if src == dest {
            return None;
        }
        let pid = self.packets.insert(Packet {
            src,
            dest,
            class,
            len_flits,
            birth_cycle: self.cycle,
            inject_cycle: u64::MAX,
            loc: Location::InjectionQueue(src),
            hops: 0,
            misroutes: 0,
            forced_hops: 0,
            tag,
        });
        let q = self.qidx(src, class);
        if self.inj[q].is_empty() {
            self.nonempty_inj += 1;
            self.inj_head_dest[q] = dest.0;
        }
        self.inj[q].push_back(pid);
        self.stats.generated += 1;
        Some(pid)
    }

    /// Peeks the head of a node's per-class ejection queue.
    pub fn peek_ejection(&self, node: NodeId, class: MessageClass) -> Option<&Packet> {
        self.ej[self.qidx(node, class)]
            .front()
            .map(|&pid| self.packets.get(pid))
    }

    /// Consumes the head of a node's per-class ejection queue, retiring the
    /// packet from the network.
    pub fn pop_ejection(&mut self, node: NodeId, class: MessageClass) -> Option<Delivered> {
        let q = self.qidx(node, class);
        let pid = self.ej[q].pop_front()?;
        if self.ej[q].is_empty() {
            self.ej_bits[q / 64] &= !(1u64 << (q % 64));
        }
        self.ej_backlog -= 1;
        let packet = self.packets.remove(pid);
        Some(Delivered { packet, id: pid })
    }

    /// Consumes the head of the lowest-indexed non-empty ejection queue
    /// (ascending (node, class) order — the same order as sweeping
    /// [`SimCore::pop_ejection`] over every node and class, so endpoint
    /// models that drain everything each cycle retire packets in the
    /// identical sequence without visiting empty queues).
    pub fn pop_next_ejection(&mut self) -> Option<Delivered> {
        let wi = self.ej_bits.iter().position(|&w| w != 0)?;
        let q = wi * 64 + self.ej_bits[wi].trailing_zeros() as usize;
        let node = NodeId((q / self.config.num_classes) as u16);
        let class = MessageClass((q % self.config.num_classes) as u8);
        self.pop_ejection(node, class)
    }

    /// Routing candidates for an explicit context (used by allocation, the
    /// deadlock detector and SPIN probes). Results are appended to `out`.
    pub fn route_candidates(&self, ctx: &RouteCtx, out: &mut Vec<Candidate>) {
        self.routing.candidates(ctx, out);
    }

    /// Concrete downstream VC slots a candidate may claim, in preference
    /// order (non-escape before escape for [`TargetVc::Any`]).
    pub fn concrete_targets(&self, cand: Candidate, vn: u8, out: &mut Vec<VcRef>) {
        let vcs = self.config.vcs_per_vn as u8;
        match cand.target {
            TargetVc::EscapeOnly => out.push(VcRef {
                link: cand.link,
                vn,
                vc: 0,
            }),
            TargetVc::NonEscapeOnly => {
                for vc in 1..vcs {
                    out.push(VcRef {
                        link: cand.link,
                        vn,
                        vc,
                    });
                }
            }
            TargetVc::Any => {
                for vc in 1..vcs {
                    out.push(VcRef {
                        link: cand.link,
                        vn,
                        vc,
                    });
                }
                out.push(VcRef {
                    link: cand.link,
                    vn,
                    vc: 0,
                });
            }
        }
    }

    /// Whether the VC buffer can accept a new packet right now.
    #[inline]
    pub fn vc_is_free(&self, r: VcRef) -> bool {
        let idx = self.vc_index(r);
        self.vc_occ[idx] == EMPTY && self.vc_free_at[idx] <= self.cycle
    }

    /// Whether the link can start a new serialization right now.
    #[inline]
    pub fn link_is_free(&self, l: LinkId) -> bool {
        self.link_busy[l.index()] <= self.cycle
    }

    /// The routing context for the packet occupying `vcref` (None if the VC
    /// is empty).
    pub fn ctx_for_vc(&self, r: VcRef, sample: u64) -> Option<RouteCtx> {
        let idx = self.vc_index(r);
        if self.vc_occ[idx] == EMPTY {
            return None;
        }
        let cur = self.topo.link(r.link).dst;
        Some(RouteCtx {
            cur,
            dest: NodeId(self.vc_dest[idx]),
            arrived_via: Some(r.link),
            in_escape: self.config.escape_sticky && r.vc == 0,
            blocked_for: self
                .cycle
                .saturating_sub(self.vc_entered_at[idx].max(self.vc_ready_at[idx])),
            sample,
        })
    }

    // ------------------------------------------------------------------
    // Per-cycle engine
    // ------------------------------------------------------------------

    /// Advances the cycle counter (called by the driver after all phases).
    pub(crate) fn advance_cycle(&mut self) {
        self.cycle += 1;
        if self.config.wake_scheduler && self.cycle >= self.gate_next {
            self.gate_tick();
        }
    }

    /// Park-profitability gate boundary (see [`GATE_WINDOW`]). Runs on
    /// committed counters only, so the gate trajectory is identical
    /// everywhere the stepped cycles are. Idle fast-forward may skip
    /// boundaries — the `>=` catch-up in [`SimCore::advance_cycle`]
    /// re-evaluates on the next stepped cycle; an idle window has no
    /// parks to judge anyway.
    #[cold]
    fn gate_tick(&mut self) {
        let w = self.cycle / GATE_WINDOW;
        if self.park_gate {
            let dp = self.wake.parks - self.gate_parks;
            let ds = self.wake.skips - self.gate_skips;
            self.park_gate = dp < GATE_MIN_PARKS || ds >= GATE_MIN_SKIPS_PER_PARK * dp;
        } else {
            self.park_gate = w.is_multiple_of(GATE_PROBE_PERIOD);
        }
        self.gate_parks = self.wake.parks;
        self.gate_skips = self.wake.skips;
        self.gate_next = (w + 1) * GATE_WINDOW;
    }

    /// The earliest future cycle at which the *network* could act, or
    /// `None` when the current cycle cannot be skipped.
    ///
    /// `Some(t)` promises that running the per-cycle engine for every
    /// cycle in `(now, t)` would be a pure no-op: no RNG draw, no state
    /// change, no stat update. That holds exactly when
    ///
    /// * every observer needing per-cycle ticks is off (fast-forward gate,
    ///   tracing, per-cycle invariant checks). Telemetry sampling is *not*
    ///   on this list: the network is frozen across an idle jump, so the
    ///   driver emits one boundary sample stamped at the last elided
    ///   window boundary instead (see [`SimCore::telemetry_note_jump`]) —
    ///   exact, and without giving up the jump,
    /// * all injection queues are empty (a queued head re-routes — and in
    ///   stream mode draws one serial RNG sample — every cycle) and no
    ///   ejection backlog remains (endpoint models consume deliveries on
    ///   per-cycle ticks),
    /// * no occupied VC is allocation-eligible before `t` (an eligible
    ///   but blocked VC has `ready_at <= now`, which yields `None` — so
    ///   congested cycles are never skipped).
    ///
    /// An empty network returns `Some(u64::MAX)`; mechanism and endpoint
    /// horizons bound the actual jump (see [`crate::sim::Sim::run`]).
    pub(crate) fn net_idle_until(&self) -> Option<u64> {
        if !self.config.fast_forward
            || self.tracer.enabled()
            || self.config.checks.any_per_cycle()
        {
            return None;
        }
        if self.nonempty_inj > 0 || self.ej_backlog > 0 {
            return None;
        }
        let mut t = u64::MAX;
        for &idx in &self.active {
            t = t.min(self.vc_ready_at[idx as usize]);
        }
        (t > self.cycle).then_some(t)
    }

    /// Jumps the clock forward to `t` (idle-cycle fast-forward). Only
    /// legal when [`SimCore::net_idle_until`] proved the skipped cycles
    /// are no-ops.
    pub(crate) fn fast_forward_to(&mut self, t: u64) {
        debug_assert!(t > self.cycle);
        self.cycle = t;
    }

    /// Takes a telemetry sample when the current cycle closes a sampling
    /// window. Called by the driver once per cycle; the O(VCs + routers)
    /// sweep runs only on window boundaries.
    pub(crate) fn telemetry_tick(&mut self) {
        if !self.telem.active() {
            return;
        }
        if !(self.cycle + 1).is_multiple_of(self.telem.period()) {
            return;
        }
        self.telemetry_sample_at(self.cycle);
    }

    /// Emits the telemetry sample an idle fast-forward jump to `t` would
    /// otherwise elide. The jump skips cycles `(now, t)`; any sampling
    /// boundary inside that stretch would have sampled *this exact
    /// state* (the jump is only legal because nothing changes), so one
    /// sample stamped at the last elided boundary is exact — the delta
    /// counters compress the idle stretch into a single flat window.
    /// Called by the driver *before* the clock jumps.
    pub(crate) fn telemetry_note_jump(&mut self, t: u64) {
        if !self.telem.active() {
            return;
        }
        let period = self.telem.period();
        // Boundaries are cycles s with (s + 1) % period == 0. Cycle t
        // itself is stepped normally, so the elided range is [cycle, t).
        // The last boundary below t:
        let last = (t / period) * period;
        if last == 0 {
            return;
        }
        let s = last - 1;
        if s >= self.cycle && s < t {
            self.telemetry_sample_at(s);
        }
    }

    /// Sweeps occupancy and queue depths into one telemetry sample
    /// stamped `stamp` (the state sweep reads the *current* state; the
    /// stamp may predate `self.cycle` only when the state is provably
    /// unchanged since, as in [`SimCore::telemetry_note_jump`]).
    fn telemetry_sample_at(&mut self, stamp: u64) {
        let n = self.topo.num_nodes();
        // A recycled scratch vector — sampling allocates nothing in steady
        // state (see [`Telemetry::checkout_routers`]).
        let mut routers = self.telem.checkout_routers(n);
        // VC buffers sit at the input of their link's destination router;
        // only occupied ones contribute, so walk the active index.
        for &idx in &self.active {
            let link = LinkId(idx / self.stride as u32);
            routers[self.topo.link(link).dst.index()].occupied_vcs += 1;
        }
        for (q, queue) in self.inj.iter().enumerate() {
            routers[q / self.config.num_classes].inj_depth += queue.len() as u32;
        }
        for (q, queue) in self.ej.iter().enumerate() {
            routers[q / self.config.num_classes].ej_depth += queue.len() as u32;
        }
        self.telem.push_sample(stamp, routers);
    }

    /// Normal allocation: gathers requests, arbitrates one grant per output
    /// link and one ejection per (node, class), and commits the moves.
    pub(crate) fn allocate_and_move(&mut self) {
        // Phase A: VC requests, visiting occupied buffers in ascending
        // link-major index order — the exact order of the former dense
        // `link, vn, vc` loop nest, so RNG draws and trace events land on
        // identical buffers in identical sequence. Ascending set-bit
        // iteration over the occupancy bitmap IS that order, and visits
        // exactly the occupied slots: a half-empty stride (baseline
        // configs idle 2 of 3 VNs under single-class traffic) costs
        // nothing. Phase A only registers requests — occupancy, and
        // therefore the bitmap, cannot change mid-sweep. The idx → (link,
        // vc) decode reads two precomputed tables instead of dividing by
        // the runtime stride.
        let mut eject_reqs = std::mem::take(&mut self.eject_buf);
        eject_reqs.clear();
        for wi in 0..self.occ_bits.len() {
            let mut w = self.occ_bits[wi];
            while w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let link = LinkId(self.idx_link[idx]);
                let vc = self.idx_vc[idx];
                self.phase_a_vc(idx, link, vc, &mut eject_reqs);
            }
        }
        // Phase A: injection requests (head of each per-class queue);
        // skipped wholesale when every queue is empty. Ascending queue
        // index IS ascending (node, class) order.
        if self.nonempty_inj > 0 {
            for q in 0..self.inj.len() {
                let Some(&pid) = self.inj[q].front() else {
                    continue;
                };
                let node = NodeId((q / self.config.num_classes) as u16);
                let class = MessageClass((q % self.config.num_classes) as u8);
                debug_assert_eq!(
                    NodeId(self.inj_head_dest[q]),
                    self.packets.get(pid).dest,
                    "stale head mirror"
                );
                let sample = self.draw_sample(DrawSite::Injection, q as u64);
                let mut cands = std::mem::take(&mut self.cand_buf);
                let routed = self.injection_route(node, class, sample, &mut cands);
                self.cand_buf = cands;
                if let Some((link, target)) = routed {
                    self.register_request(
                        link,
                        LinkRequest {
                            source: MoveSource::Injection { node, class },
                            pid,
                            target,
                            blocked_for: 0,
                        },
                    );
                }
            }
        }
        self.prof.mark(Phase::PhaseA);

        // Phase B: ejection grants — one per (node, class) queue with space.
        eject_reqs.sort_unstable_by_key(|&(q, idx, _)| (q, idx));
        let mut gi = 0;
        while gi < eject_reqs.len() {
            let q = eject_reqs[gi].0;
            let mut ge = gi;
            while ge < eject_reqs.len() && eject_reqs[ge].0 == q {
                ge += 1;
            }
            let group = &eject_reqs[gi..ge];
            // Oldest-first ejection grant.
            let ej_len = self.ej[q].len();
            if ej_len >= self.config.ej_queue_capacity {
                // Deliverable packets blocked on a full ejection queue are
                // credit-stalled at the destination router.
                if self.telem.active() {
                    self.telem
                        .note_credit_stalls(q / self.config.num_classes, group.len() as u64);
                }
            } else {
                let (_, idx, pid) = group[self.eject_winner(q, group)];
                self.commit_eject(idx, pid);
            }
            gi = ge;
        }
        self.eject_buf = eject_reqs;

        // Phase B: link grants — one per output link, oldest requester
        // first (age-based arbitration bounds worst-case blocking, as in
        // real NoC allocators); rotation breaks ties. Only links that
        // received a request are visited, in ascending id order (the
        // former dense sweep's order: ascending set-bit iteration needs
        // no sort).
        for wi in 0..self.req_bits.len() {
            let mut w = self.req_bits[wi];
            self.req_bits[wi] = 0;
            while w != 0 {
                let li = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let reqs = std::mem::take(&mut self.req_buf[li]);
                let req = reqs[self.link_winner(li, &reqs)];
                self.commit_move(&req, LinkId(li as u32));
                let mut reqs = reqs;
                reqs.clear();
                self.req_buf[li] = reqs;
            }
        }
        self.prof.mark(Phase::PhaseB);
    }

    /// Phase A body for one occupied VC buffer: eject request, or a routed
    /// move request. Stream mode draws one serial sample per visited ready
    /// non-ejecting head (the contract-v1 draw schedule); keyed mode draws
    /// `mix(seed, cycle, PhaseA, idx)` only for heads that actually route.
    /// Reads only the VC arena and its hot mirrors; the packet slab is
    /// never touched here.
    #[inline]
    fn phase_a_vc(
        &mut self,
        idx: usize,
        link: LinkId,
        vc: u8,
        eject_reqs: &mut Vec<(usize, usize, PacketId)>,
    ) {
        let now = self.cycle;
        let pid = PacketId(self.vc_occ[idx]);
        if self.vc_ready_at[idx] > now {
            return;
        }
        let here = self.topo.link(link).dst;
        if NodeId(self.vc_dest[idx]) == here {
            let class = MessageClass(self.vc_class[idx]);
            eject_reqs.push((self.qidx(here, class), idx, pid));
            return;
        }
        // Stream mode's determinism contract: every visited ready
        // non-ejecting head consumes exactly one serial draw — parked or
        // not — so the wake scheduler never shifts the draw schedule.
        // Keyed mode's draws are position-free, so a parked head's draw
        // is simply never computed (the arithmetic the stream contract
        // forced the wake scheduler to keep paying).
        let keyed = self.config.rng_mode == RngMode::Keyed;
        let mut sample = if keyed {
            0
        } else {
            self.draw_sample(DrawSite::PhaseA, idx as u64)
        };
        // Parked fast path: a head whose last routing pass proved no
        // feasible move, with a wake deadline still in the future, routes
        // the same `None` the dense scan would recompute — skip the ctx
        // build, the routing call and the feasibility walk entirely. This
        // is the saturated-regime cost the wake scheduler removes.
        if self.vc_wake_at[idx] > now {
            self.wake.skips += 1;
            if self.telem.active() {
                self.telem.note_credit_stalls(here.index(), 1);
            }
            return;
        }
        if keyed {
            sample = self.draw_sample(DrawSite::PhaseA, idx as u64);
        }
        let mut cands = std::mem::take(&mut self.cand_buf);
        match self.phase_a_route_or_park(idx, link, vc, sample, &mut cands) {
            PhaseAOutcome::Route(out_link, target, blocked_for) => self.register_request(
                out_link,
                LinkRequest {
                    source: MoveSource::Vc(idx),
                    pid,
                    target,
                    blocked_for,
                },
            ),
            // A resident packet that cannot even request a move is
            // credit-stalled at its current router; the fused walk may
            // have decided to park it until its answer can change.
            outcome => {
                if self.telem.active() {
                    self.telem.note_credit_stalls(here.index(), 1);
                }
                match outcome {
                    PhaseAOutcome::Park(note) => self.apply_park(note),
                    _ => self.wake.stalls += 1,
                }
            }
        }
        self.cand_buf = cands;
    }

    /// Pure Phase A routing decision for the ready, non-ejecting head at
    /// arena index `idx`, given its tie-break `sample`: which output link
    /// it requests, with what target-VC kind and age — or `None` when
    /// every feasible next hop lacks buffer or link credit this cycle.
    ///
    /// Takes `&self`: the deep sweep's missed-wake check re-decides parked
    /// heads through it without touching state.
    fn phase_a_route(
        &self,
        idx: usize,
        link: LinkId,
        vc: u8,
        sample: u64,
        cands: &mut Vec<Candidate>,
    ) -> Option<(LinkId, TargetVc, u64)> {
        let now = self.cycle;
        let dest = NodeId(self.vc_dest[idx]);
        debug_assert_eq!(
            dest,
            self.packets.get(PacketId(self.vc_occ[idx])).dest,
            "stale dest mirror"
        );
        let here = self.topo.link(link).dst;
        let in_escape = self.config.escape_sticky && vc == 0;
        let blocked_for = now.saturating_sub(self.vc_entered_at[idx].max(self.vc_ready_at[idx]));
        let ctx = RouteCtx {
            cur: here,
            dest,
            arrived_via: Some(link),
            in_escape,
            blocked_for,
            sample,
        };
        let class = MessageClass(self.vc_class[idx]);
        let vn = self.config.vn_of_class(class) as u8;
        debug_assert_eq!(
            vn,
            ((idx % self.stride) / self.config.vcs_per_vn) as u8,
            "packet must sit in its class VN"
        );
        // Escape VCs are a last resort: only packets blocked for
        // the configured patience may fall back into one
        // (packets already in an escape VC must continue there).
        let allow_escape = in_escape
            || self.escape_always_allowed()
            || blocked_for >= self.config.escape_entry_patience;
        self.choose_feasible(&ctx, vn, allow_escape, cands)
            .map(|(l, t)| (l, t, blocked_for))
    }

    /// Pure Phase A routing decision for the head of the `(node, class)`
    /// injection queue, given its tie-break `sample`.
    ///
    /// Source-queue waiting is ordinary queueing, not deadlock pressure:
    /// a waiting injection holds no network resource, so it neither
    /// deflects nor claims the escape VC (it can always keep waiting for
    /// a non-escape buffer). The head's destination comes from the hot
    /// mirror, not the slab: under backpressure every queue is non-empty
    /// and the slab spans megabytes.
    fn injection_route(
        &self,
        node: NodeId,
        class: MessageClass,
        sample: u64,
        cands: &mut Vec<Candidate>,
    ) -> Option<(LinkId, TargetVc)> {
        let q = self.qidx(node, class);
        let ctx = RouteCtx {
            cur: node,
            dest: NodeId(self.inj_head_dest[q]),
            arrived_via: None,
            in_escape: false,
            blocked_for: 0,
            sample,
        };
        let vn = self.config.vn_of_class(class) as u8;
        let allow_escape = self.escape_always_allowed();
        self.choose_feasible(&ctx, vn, allow_escape, cands)
    }

    /// Whether escape-VC entry needs no patience: non-sticky configs have
    /// no escape distinction, and single-VC VNs have nothing else to use.
    #[inline]
    fn escape_always_allowed(&self) -> bool {
        !self.config.escape_sticky
            || self.config.vcs_per_vn == 1
            || self.config.escape_entry_patience == 0
    }

    /// Finds the first routing candidate with a free link and a free
    /// target VC. `allow_escape` gates fallback into escape VCs (entry
    /// patience). `cands` is caller-provided scratch (cleared here).
    fn choose_feasible(
        &self,
        ctx: &RouteCtx,
        vn: u8,
        allow_escape: bool,
        cands: &mut Vec<Candidate>,
    ) -> Option<(LinkId, TargetVc)> {
        cands.clear();
        self.routing.candidates(ctx, cands);
        for cand in cands.iter() {
            let target = match (cand.target, allow_escape) {
                (TargetVc::Any, false) => TargetVc::NonEscapeOnly,
                (TargetVc::EscapeOnly, false) => continue,
                (t, _) => t,
            };
            if !self.link_is_free(cand.link) {
                continue;
            }
            let downgraded = Candidate {
                link: cand.link,
                target,
            };
            if self.resolve_target_vc(downgraded, vn).is_some() {
                return Some((cand.link, target));
            }
        }
        None
    }

    /// Fused Phase A routing + parking decision for the ready,
    /// non-ejecting head at `idx`: the first feasible candidate in
    /// rotated order — exactly [`SimCore::phase_a_route`]'s answer — or,
    /// when every candidate is infeasible, a parking decision folded out
    /// of the *same* walk (no second pass over the candidate set: the
    /// failure walk has already touched every link clock and target slot
    /// the wake decision needs).
    ///
    /// Parking is declined (`Stall`) when unsound — an
    /// [`WakeProfile::Unstable`] routing, or a router too wide for the
    /// 32-bit subscription mask — and when it is sound but *worthless*: a
    /// wake deadline of `now + 1` fires before the next visit could skip
    /// anything, so the park would be pure bookkeeping. That last rule
    /// carries the saturated-regime win: with single-cycle link
    /// serialization, any candidate with an empty-but-infeasible slot
    /// yields a `now + 1` deadline, so heads only ever park when every
    /// eligible candidate slot is occupied — the parks that sleep until a
    /// vacate actually fires.
    ///
    /// Soundness argument (missed wakes are impossible):
    ///
    /// * The candidate *set* is frozen while the packet stays put except
    ///   at known `blocked_for` thresholds (routing widening, escape-entry
    ///   patience); `blocked_for`'s base is frozen while occupied, so each
    ///   uncrossed threshold converts to an exact timed wake.
    /// * Per candidate, feasibility needs a free link and a free target
    ///   VC. `link_busy`/`vc_free_at` only ever move a *known* deadline
    ///   (timed wake at the max of both for empty slots); occupied slots
    ///   can free only through [`SimCore::vacate_slot`], which fires this
    ///   link's subscriptions. State changes in the other direction
    ///   (occupations, busier links) only delay feasibility and are
    ///   re-checked on wake.
    ///
    /// The feasibility half must stay behaviourally identical to
    /// [`SimCore::phase_a_route`] (same downgrade, same link/slot checks,
    /// same first-match order). That duplication is deliberate:
    /// `validate_wake_parking` re-routes parked heads through the
    /// *independent* `choose_feasible` walk, so any drift between the two
    /// shows up as a missed-wake violation in the deep sweeps and
    /// proptests, not as silent divergence.
    ///
    /// Takes `&self` against pre-commit state; the resulting park note is
    /// applied before any Phase B commit.
    fn phase_a_route_or_park(
        &self,
        idx: usize,
        link: LinkId,
        vc: u8,
        sample: u64,
        cands: &mut Vec<Candidate>,
    ) -> PhaseAOutcome {
        let now = self.cycle;
        let dest = NodeId(self.vc_dest[idx]);
        debug_assert_eq!(
            dest,
            self.packets.get(PacketId(self.vc_occ[idx])).dest,
            "stale dest mirror"
        );
        let here = self.topo.link(link).dst;
        let in_escape = self.config.escape_sticky && vc == 0;
        let base = self.vc_entered_at[idx].max(self.vc_ready_at[idx]);
        let blocked_for = now.saturating_sub(base);
        let ctx = RouteCtx {
            cur: here,
            dest,
            arrived_via: Some(link),
            in_escape,
            blocked_for,
            sample,
        };
        let class = MessageClass(self.vc_class[idx]);
        let vn = self.config.vn_of_class(class) as u8;
        debug_assert_eq!(
            vn,
            ((idx % self.stride) / self.config.vcs_per_vn) as u8,
            "packet must sit in its class VN"
        );
        let patience = self.config.escape_entry_patience;
        let allow_escape = in_escape || self.escape_always_allowed() || blocked_for >= patience;
        cands.clear();
        self.routing.candidates(&ctx, cands);

        let out_links = self.topo.out_links(here);
        let mut parkable = self.config.wake_scheduler
            && self.park_gate
            && !matches!(self.wake_profile, WakeProfile::Unstable)
            && out_links.len() <= 32;
        let mut wake_at = u64::MAX;
        if parkable {
            if let WakeProfile::WidensAt(t) = self.wake_profile {
                if blocked_for < t {
                    wake_at = base + t;
                }
            }
            if !allow_escape {
                // Escape targets unlock when `blocked_for` reaches the
                // patience threshold (both the skipped `EscapeOnly`
                // candidates and the `Any` → `NonEscapeOnly` downgrade).
                wake_at = wake_at.min(base + patience);
            }
        }
        let vcs = self.config.vcs_per_vn as u8;
        let mut subs: u32 = 0;
        for cand in cands.iter() {
            let target = match (cand.target, allow_escape) {
                (TargetVc::Any, false) => TargetVc::NonEscapeOnly,
                (TargetVc::EscapeOnly, false) => continue,
                (t, _) => t,
            };
            let li = cand.link.index();
            let link_busy = self.link_busy[li];
            if link_busy <= now
                && self
                    .resolve_target_vc(
                        Candidate {
                            link: cand.link,
                            target,
                        },
                        vn,
                    )
                    .is_some()
            {
                return PhaseAOutcome::Route(cand.link, target, blocked_for);
            }
            if !parkable {
                continue;
            }
            // Infeasible candidate: fold it into the wake decision.
            let (lo, hi) = match target {
                TargetVc::EscapeOnly => (0u8, 1u8),
                TargetVc::NonEscapeOnly => (1, vcs),
                TargetVc::Any => (0, vcs),
            };
            let slot0 = li * self.stride + vn as usize * self.config.vcs_per_vn;
            let mut any_occupied = false;
            for tvc in lo..hi {
                let s = slot0 + tvc as usize;
                if self.vc_occ[s] != EMPTY {
                    any_occupied = true;
                } else {
                    // Empty but infeasible: claimable no earlier than
                    // when both the link and the buffer tail free up.
                    wake_at = wake_at.min(link_busy.max(self.vc_free_at[s]));
                }
            }
            if any_occupied {
                match out_links.iter().position(|&l| l == cand.link) {
                    Some(j) => subs |= 1u32 << j,
                    // A candidate that is not an out-link of `here` would
                    // break the subscription invariant; never park on it.
                    None => {
                        debug_assert!(false, "candidate {:?} not an out-link", cand.link);
                        parkable = false;
                    }
                }
            }
        }
        if !parkable {
            return PhaseAOutcome::Stall;
        }
        debug_assert!(
            wake_at > now,
            "an infeasible move cannot become feasible this cycle"
        );
        // A wake at `now + 1` fires before the next visit could skip
        // anything — the park would be pure overhead. Stay active.
        if wake_at <= now + 1 {
            return PhaseAOutcome::Stall;
        }
        PhaseAOutcome::Park(ParkNote {
            idx: idx as u32,
            wake_at,
            subs,
        })
    }

    /// Applies a park note: records the wake deadline and inserts the
    /// subscription entries this slot does not already hold (the
    /// `sub_mask` invariant makes the dedup exact, so entry counts stay
    /// bounded by the router degree no matter how often the slot
    /// re-parks).
    fn apply_park(&mut self, note: ParkNote) {
        let idx = note.idx as usize;
        if self.vc_wake_at[idx] != 0 {
            // The head had parked before and this visit's wake failed to
            // unblock it.
            self.wake.spurious_wakes += 1;
        }
        self.vc_wake_at[idx] = note.wake_at;
        let mut fresh = note.subs & !self.sub_mask[idx];
        self.sub_mask[idx] |= note.subs;
        if fresh != 0 {
            let here = self.topo.link(LinkId(self.idx_link[idx])).dst;
            let out_links = self.topo.out_links(here);
            while fresh != 0 {
                let j = fresh.trailing_zeros() as u8;
                fresh &= fresh - 1;
                let li = out_links[j as usize].index();
                self.wake_subs[li].push(WakeSub {
                    slot: note.idx,
                    j,
                });
            }
        }
        self.wake.parks += 1;
    }

    /// Conservative wake-all: every parked head's deadline drops to `now`
    /// so the next Phase A sweep re-routes it. Used around events the
    /// subscription graph does not model (mechanism-forced permutations).
    /// Subscription entries stay in place — the `sub_mask` invariant is a
    /// slot property, and a later fire on a woken slot is a no-op `min`.
    fn wake_all(&mut self) {
        if !self.config.wake_scheduler {
            return;
        }
        let now = self.cycle;
        for &idx in &self.active {
            let w = &mut self.vc_wake_at[idx as usize];
            *w = (*w).min(now);
        }
        self.wake.wake_alls += 1;
    }

    /// Wake-scheduler accounting since construction (or the last
    /// [`SimCore::set_wake_scheduler`] toggle).
    pub fn wake_counters(&self) -> WakeCounters {
        self.wake
    }

    /// Switches the wake-driven Phase A scheduler on or off mid-assembly
    /// and resets all wake state: deadlines, subscription lists, masks and
    /// counters. The reset is what makes enabling *after* a disabled
    /// stretch sound — fires skipped while disabled can no longer be
    /// missed if nothing is parked. Results are bit-identical either way
    /// (differential tests exist to prove it).
    pub fn set_wake_scheduler(&mut self, enabled: bool) {
        self.config.wake_scheduler = enabled;
        self.vc_wake_at.iter_mut().for_each(|w| *w = 0);
        self.sub_mask.iter_mut().for_each(|m| *m = 0);
        self.wake_subs.iter_mut().for_each(Vec::clear);
        self.pending_fires.clear();
        self.wake = WakeCounters::default();
        self.park_gate = true;
        self.gate_parks = 0;
        self.gate_skips = 0;
        self.gate_next = (self.cycle / GATE_WINDOW + 1) * GATE_WINDOW;
    }

    /// Switches the tie-break sample source (see [`crate::rng`]) for an
    /// assembled core and re-seeds the serial stream to its cycle-0
    /// position. Meant for pre-run configuration: the two modes produce
    /// different (equally valid) random sequences, so switching mid-run
    /// splices two unrelated draw histories — deterministic, but pinned
    /// by neither mode's golden family.
    pub fn set_rng_mode(&mut self, mode: RngMode) {
        self.config.rng_mode = mode;
        self.rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        self.rng_draws = [0; NUM_DRAW_SITES];
    }

    /// Deep-sweep validation of the wake scheduler (paired with
    /// [`SimCore::validate_active_index`]):
    ///
    /// * *No missed wake*: every parked head (`wake_at > now`) must still
    ///   route `None` — re-deciding Phase A for it right now (sample 0;
    ///   `None`-ness is sample-independent, see [`WakeProfile`]) must not
    ///   find a feasible move the scheduler would have skipped.
    /// * *Subscription bookkeeping*: every `sub_mask` bit corresponds to
    ///   exactly one `(slot, j)` entry in the right link's wake list, and
    ///   no list holds an entry without its mask bit.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_wake_parking(&self) -> Result<(), String> {
        let now = self.cycle;
        let mut cands = Vec::new();
        for &idx in &self.active {
            let idx = idx as usize;
            if self.vc_wake_at[idx] <= now {
                continue;
            }
            let link = LinkId(self.idx_link[idx]);
            let vc = self.idx_vc[idx];
            if self.vc_ready_at[idx] > now {
                return Err(format!(
                    "parked VC {:?} is not allocation-eligible (ready_at {} > {now})",
                    self.vc_ref_of_index(idx),
                    self.vc_ready_at[idx]
                ));
            }
            if let Some((l, _, _)) = self.phase_a_route(idx, link, vc, 0, &mut cands) {
                return Err(format!(
                    "missed wake: parked VC {:?} (wake_at {}) has a feasible move via {l:?}",
                    self.vc_ref_of_index(idx),
                    self.vc_wake_at[idx]
                ));
            }
        }
        let mut entry_counts = vec![0u32; self.sub_mask.len()];
        for (li, list) in self.wake_subs.iter().enumerate() {
            for s in list {
                let slot = s.slot as usize;
                if self.sub_mask[slot] & (1u32 << s.j) == 0 {
                    return Err(format!(
                        "wake entry (slot {slot}, j {}) on link {li} has no mask bit",
                        s.j
                    ));
                }
                let here = self.topo.link(LinkId(self.idx_link[slot])).dst;
                let expect = self.topo.out_links(here).get(s.j as usize).copied();
                if expect != Some(LinkId(li as u32)) {
                    return Err(format!(
                        "wake entry (slot {slot}, j {}) sits on link {li}, expected {expect:?}",
                        s.j
                    ));
                }
                entry_counts[slot] += 1;
            }
        }
        for (slot, &mask) in self.sub_mask.iter().enumerate() {
            if mask.count_ones() != entry_counts[slot] {
                return Err(format!(
                    "slot {slot} mask has {} bits but {} wake entries exist",
                    mask.count_ones(),
                    entry_counts[slot]
                ));
            }
        }
        Ok(())
    }

    /// Registers a pending request on `link` for this cycle's Phase B
    /// arbitration.
    fn register_request(&mut self, link: LinkId, req: LinkRequest) {
        let li = link.index();
        self.req_bits[li / 64] |= 1u64 << (li % 64);
        self.req_buf[li].push(req);
    }

    /// Oldest-first ejection arbitration for the non-empty request
    /// `group` of ejection queue `q` (each entry `(q, arena idx, pid)`):
    /// index of the winning entry. Rotation breaks ties.
    fn eject_winner(&self, q: usize, group: &[(usize, usize, PacketId)]) -> usize {
        let now = self.cycle;
        let rot = (now as usize + q) % group.len();
        (0..group.len())
            .max_by_key(|&i| {
                let idx = group[i].1;
                let blocked =
                    now.saturating_sub(self.vc_entered_at[idx].max(self.vc_ready_at[idx]));
                (blocked, usize::from(i == rot))
            })
            .expect("non-empty group")
    }

    /// Oldest-first link arbitration for the non-empty request list of
    /// output link `li`: index of the winning request. Rotation breaks
    /// ties; ties on `(age, rotation)` fall to the *last* maximum, so the
    /// winner depends on list order (the Phase A sweep order).
    fn link_winner(&self, li: usize, reqs: &[LinkRequest]) -> usize {
        let rot = (self.cycle as usize + li) % reqs.len();
        (0..reqs.len())
            .max_by_key(|&i| (reqs[i].blocked_for, usize::from(i == rot)))
            .expect("non-empty request list")
    }

    /// Resolves a target kind to the first currently free concrete VC.
    fn resolve_target_vc(&self, cand: Candidate, vn: u8) -> Option<VcRef> {
        let vcs = self.config.vcs_per_vn as u8;
        let try_vc = |vc: u8| -> Option<VcRef> {
            let r = VcRef {
                link: cand.link,
                vn,
                vc,
            };
            self.vc_is_free(r).then_some(r)
        };
        match cand.target {
            TargetVc::EscapeOnly => try_vc(0),
            TargetVc::NonEscapeOnly => (1..vcs).find_map(try_vc),
            TargetVc::Any => (1..vcs).find_map(try_vc).or_else(|| try_vc(0)),
        }
    }

    /// Commits a granted link request: frees the source, occupies the
    /// resolved target VC, serializes the link, and records stats,
    /// telemetry and trace events.
    fn commit_move(&mut self, req: &LinkRequest, out_link: LinkId) {
        let now = self.cycle;
        // Free the source.
        match req.source {
            MoveSource::Vc(idx) => {
                debug_assert_eq!(self.vc_occ[idx], req.pid.0);
                let len = self.vc_len[idx] as u64;
                self.vacate_slot(idx, now + len);
            }
            MoveSource::Injection { node, class } => {
                let q = self.qidx(node, class);
                let popped = self.inj[q].pop_front();
                debug_assert_eq!(popped, Some(req.pid));
                match self.inj[q].front() {
                    Some(&head) => self.inj_head_dest[q] = self.packets.get(head).dest.0,
                    None => self.nonempty_inj -= 1,
                }
                self.packets.get_mut(req.pid).inject_cycle = now;
                self.stats.injected += 1;
            }
        }
        // One slab read covers the rest of the commit (`Packet` is `Copy`).
        let p = *self.packets.get(req.pid);
        let p_len = p.len_flits as u64;
        let from_node = self.topo.link(out_link).src;
        // Occupy the target VC.
        let vn = self.config.vn_of_class(p.class) as u8;
        let cand = Candidate {
            link: out_link,
            target: req.target,
        };
        let target = self
            .resolve_target_vc(cand, vn)
            .expect("target was free at request time and only one grant per link");
        let tidx = self.vc_index(target);
        let arrive = now + self.config.link_latency as u64 + self.config.router_latency as u64;
        self.occupy_slot(tidx, req.pid, arrive, now);
        self.link_busy[out_link.index()] = now + p_len;
        // Packet bookkeeping.
        let to_node = self.topo.link(out_link).dst;
        let old_d = self.dmap.distance(from_node, p.dest);
        let new_d = self.dmap.distance(to_node, p.dest);
        let misroute = new_d >= old_d;
        let pm = self.packets.get_mut(req.pid);
        pm.loc = Location::Vc {
            link: out_link,
            vn: target.vn,
            vc: target.vc,
        };
        pm.hops += 1;
        if misroute {
            pm.misroutes += 1;
            self.stats.misroutes += 1;
        }
        self.stats.hops += 1;
        self.stats.flit_hops += p_len;
        self.stats.last_progress_cycle = now;
        if self.telem.active() {
            self.telem.note_link_flits(out_link.index(), p_len);
        }
        if self.tracer.enabled() {
            let (src, dest, class) = (p.src.0, p.dest.0, p.class.index() as u8);
            if matches!(req.source, MoveSource::Injection { .. }) {
                self.tracer.push(TraceEvent::Inject {
                    cycle: now,
                    pid: req.pid.0,
                    src,
                    dest,
                    class,
                });
            }
            self.tracer.push(TraceEvent::VcAlloc {
                cycle: now,
                pid: req.pid.0,
                link: out_link.0,
                vn: target.vn,
                vc: target.vc,
            });
            self.tracer.push(TraceEvent::LinkTraverse {
                cycle: now,
                pid: req.pid.0,
                link: out_link.0,
                flits: p_len as u32,
                misroute,
            });
        }
    }

    fn commit_eject(&mut self, vc_idx: usize, pid: PacketId) {
        let now = self.cycle;
        debug_assert_eq!(self.vc_occ[vc_idx], pid.0);
        let len = self.vc_len[vc_idx] as u64;
        self.vacate_slot(vc_idx, now + len);
        self.finish_delivery(pid, false);
    }

    /// Records delivery stats and parks the packet in its destination's
    /// ejection queue.
    fn finish_delivery(&mut self, pid: PacketId, via_drain: bool) {
        let now = self.cycle;
        let (dest, class, len, inject, birth) = {
            let p = self.packets.get(pid);
            (
                p.dest,
                p.class,
                p.len_flits as u64,
                p.inject_cycle,
                p.birth_cycle,
            )
        };
        let q = self.qidx(dest, class);
        debug_assert!(self.ej[q].len() < self.config.ej_queue_capacity || via_drain);
        self.ej[q].push_back(pid);
        self.ej_bits[q / 64] |= 1u64 << (q % 64);
        self.ej_backlog += 1;
        self.packets.get_mut(pid).loc = Location::EjectionQueue(dest);
        let net = now.saturating_sub(inject) + len;
        let total = now.saturating_sub(birth) + len;
        self.stats.net_latency.record(net);
        self.stats.total_latency.record(total);
        self.stats.ejected += 1;
        self.stats.window_ejected += 1;
        self.stats.last_progress_cycle = now;
        if self.tracer.enabled() {
            self.tracer.push(TraceEvent::Eject {
                cycle: now,
                pid: pid.0,
                node: dest.0,
                class: class.index() as u8,
                latency: net,
            });
        }
    }

    /// Applies an atomic set of forced one-hop movements (a drain step or a
    /// spin). Movements form a partial permutation: sources are distinct,
    /// targets are distinct, and a target may coincide with another move's
    /// source (the classic cyclic shift).
    ///
    /// A moved packet that arrives at its destination router ejects
    /// immediately if its ejection queue has space (paper §III-C2).
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the set is not a valid permutation or a
    /// source VC is empty.
    pub(crate) fn apply_forced(&mut self, moves: &[ForcedMove], kind: ForcedKind) {
        let now = self.cycle;
        // A forced permutation rearranges occupancy wholesale — packets
        // land in new buffers, links go busy, ejections free VCs. The
        // vacates below fire their own wake lists, but conservatively wake
        // every parked head anyway: forced cycles are rare (one per drain
        // epoch / spin) and a blanket re-route is provably safe, whereas
        // proving the subscription graph covers every mechanism's side
        // effects is not worth the fragility.
        self.wake_all();
        // Validate + snapshot.
        let mut staged: Vec<(PacketId, VcRef)> = Vec::with_capacity(moves.len());
        for m in moves {
            let fidx = self.vc_index(m.from);
            let occ = self.vc_occ[fidx];
            assert!(occ != EMPTY, "forced move from an empty VC");
            debug_assert_eq!(
                self.topo.link(m.from.link).dst,
                self.topo.link(m.to.link).src,
                "forced move must pivot at the from-link's head router"
            );
            staged.push((PacketId(occ), m.to));
        }
        if cfg!(debug_assertions) {
            let mut froms: Vec<usize> = moves.iter().map(|m| self.vc_index(m.from)).collect();
            froms.sort_unstable();
            froms.dedup();
            assert_eq!(froms.len(), moves.len(), "duplicate forced-move source");
            let mut tos: Vec<usize> = moves.iter().map(|m| self.vc_index(m.to)).collect();
            tos.sort_unstable();
            tos.dedup();
            assert_eq!(tos.len(), moves.len(), "duplicate forced-move target");
        }
        // Clear all sources first (atomic permutation semantics).
        for m in moves {
            let fidx = self.vc_index(m.from);
            let len = self.vc_len[fidx] as u64;
            self.vacate_slot(fidx, now + len);
        }
        // Fill targets / eject.
        let arrive = now + self.config.link_latency as u64 + self.config.router_latency as u64;
        for (pid, to) in staged {
            let p_len = self.packets.get(pid).len_flits as u64;
            let from_node = self.topo.link(to.link).src;
            let to_node = self.topo.link(to.link).dst;
            self.link_busy[to.link.index()] = now + p_len;
            self.stats.flit_hops += p_len;
            let (dest, class, old_d, new_d) = {
                let p = self.packets.get(pid);
                (
                    p.dest,
                    p.class,
                    self.dmap.distance(from_node, p.dest),
                    self.dmap.distance(to_node, p.dest),
                )
            };
            {
                let p = self.packets.get_mut(pid);
                p.hops += 1;
                p.forced_hops += 1;
                if new_d >= old_d {
                    p.misroutes += 1;
                }
            }
            self.stats.hops += 1;
            self.stats.forced_hops += 1;
            if new_d >= old_d {
                self.stats.misroutes += 1;
            }
            if self.telem.active() {
                self.telem.note_link_flits(to.link.index(), p_len);
            }
            if self.tracer.enabled() {
                self.tracer.push(TraceEvent::ForcedHop {
                    cycle: now,
                    pid: pid.0,
                    link: to.link.0,
                    kind,
                    misroute: new_d >= old_d,
                });
            }
            if dest == to_node && self.ejection_has_space(to_node, class) {
                self.finish_delivery(pid, true);
                continue;
            }
            let tidx = self.vc_index(to);
            debug_assert!(
                self.vc_occ[tidx] == EMPTY,
                "forced-move target still occupied after clearing sources"
            );
            self.occupy_slot(tidx, pid, arrive, now);
            self.packets.get_mut(pid).loc = Location::Vc {
                link: to.link,
                vn: to.vn,
                vc: to.vc,
            };
        }
        match kind {
            ForcedKind::Drain => self.stats.drains += 1,
            ForcedKind::FullDrain => self.stats.full_drains += 1,
            ForcedKind::Spin => self.stats.spins += 1,
        }
        if !moves.is_empty() {
            self.stats.last_progress_cycle = now;
        }
    }

    /// Places a freshly created packet directly into a VC buffer —
    /// scripted scenarios only (walk-throughs, adversarial tests). The
    /// packet is counted as generated and injected at the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if the VC is occupied or `vn` does not match the class's
    /// virtual network.
    pub fn place_packet(
        &mut self,
        r: VcRef,
        src: NodeId,
        dest: NodeId,
        class: MessageClass,
        len_flits: u32,
    ) -> PacketId {
        assert_eq!(
            self.config.vn_of_class(class) as u8,
            r.vn,
            "packet class must match the VC's virtual network"
        );
        let idx = self.vc_index(r);
        assert!(self.vc_occ[idx] == EMPTY, "VC {r:?} is occupied");
        let pid = self.packets.insert(Packet {
            src,
            dest,
            class,
            len_flits,
            birth_cycle: self.cycle,
            inject_cycle: self.cycle,
            loc: Location::Vc {
                link: r.link,
                vn: r.vn,
                vc: r.vc,
            },
            hops: 0,
            misroutes: 0,
            forced_hops: 0,
            tag: 0,
        });
        self.occupy_slot(idx, pid, self.cycle, self.cycle);
        self.stats.generated += 1;
        self.stats.injected += 1;
        pid
    }

    /// Snapshot of `(VcRef, PacketId)` for every occupied VC (diagnostics
    /// and walk-throughs).
    pub fn occupied_vcs(&self) -> Vec<(VcRef, PacketId)> {
        self.vc_refs()
            .filter_map(|r| self.vc(r).occ.map(|p| (r, p)))
            .collect()
    }

    /// Oracle delivery: teleports the packet in `r` straight into its
    /// destination's ejection queue (zero cost). Used by the ideal
    /// deadlock-free reference (Fig 5) — never by a real mechanism.
    pub fn oracle_deliver(&mut self, r: VcRef) {
        let idx = self.vc_index(r);
        let occ = self.vc_occ[idx];
        if occ == EMPTY {
            return;
        }
        self.vacate_slot(idx, self.cycle);
        // Out-of-band vacate (mechanism `control`, before this cycle's
        // Phase A): deliver the wake now so parked heads can use the
        // freed slot this very cycle, exactly as the dense scan would.
        self.flush_wakes();
        self.stats.oracle_resolutions += 1;
        self.finish_delivery(PacketId(occ), true);
    }

    /// Direct RNG access for endpoint models that want the core's seeded
    /// stream. This is the *serial* stream: drawing from it shifts the
    /// stream-mode draw schedule of everything after it, and keyed mode
    /// never reads it — schedule-free mechanism/endpoint randomness
    /// should go through [`SimCore::mechanism_sample`] instead.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.rng
    }
}

impl std::fmt::Debug for SimCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCore")
            .field("topology", &self.topo.name())
            .field("cycle", &self.cycle)
            .field("in_network", &self.active.len())
            .field("live_packets", &self.packets.len())
            .field("routing", &self.routing.name())
            .finish()
    }
}
