//! Simulator configuration (paper Table II).

use crate::check::CheckConfig;
use crate::metrics::MetricsConfig;
use crate::rng::RngMode;
use crate::trace::TraceConfig;

/// Network configuration knobs.
///
/// Defaults reproduce the paper's Table II baseline: 3 virtual networks × 2
/// VCs (the escape-VC/SPIN provisioning), virtual cut-through with a single
/// packet per VC, 1-cycle routers, 1-cycle links, 128-bit links so a 64-byte
/// data packet is 5 flits and control packets are 1 flit.
///
/// # Examples
///
/// ```
/// use drain_netsim::SimConfig;
///
/// let cfg = SimConfig::default();
/// assert_eq!(cfg.vns, 3);
/// assert_eq!(cfg.vcs_per_vn, 2);
/// let drain_cfg = SimConfig::drain_default();
/// assert_eq!(drain_cfg.vns, 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of virtual networks (one per message class in the baselines;
    /// DRAIN needs only one).
    pub vns: usize,
    /// VCs per virtual network (VC 0 is the escape VC).
    pub vcs_per_vn: usize,
    /// Number of message classes generated by endpoints (classes map onto
    /// virtual networks as `class % vns`).
    pub num_classes: usize,
    /// Flits per data packet (64-byte line over 128-bit links = 5 with
    /// head overhead folded in).
    pub data_packet_flits: u32,
    /// Flits per control packet.
    pub ctrl_packet_flits: u32,
    /// Router pipeline latency in cycles.
    pub router_latency: u32,
    /// Link traversal latency in cycles.
    pub link_latency: u32,
    /// Capacity of each per-class injection queue.
    pub inj_queue_capacity: usize,
    /// Capacity of each per-class ejection queue.
    pub ej_queue_capacity: usize,
    /// Once a packet occupies an escape VC it may only move to escape VCs
    /// downstream (paper §III-A; true for DRAIN and the escape-VC baseline).
    pub escape_sticky: bool,
    /// Cycles an in-network packet must have been blocked before it may
    /// fall back into an escape VC (only meaningful with `escape_sticky`;
    /// ignored when a VN has a single VC). Packets still waiting in a
    /// source queue never claim escape VCs — they hold no network resource
    /// and can always keep waiting.
    pub escape_entry_patience: u64,
    /// Cycles between structural deadlock-detector sweeps (0 disables).
    pub deadlock_check_interval: u64,
    /// Cycles without any packet movement (while packets are in-network)
    /// after which the watchdog declares a deadlock (0 disables).
    pub watchdog_threshold: u64,
    /// RNG seed for all stochastic choices in the core (adaptive
    /// tie-breaks).
    pub seed: u64,
    /// How tie-break samples are produced from `seed` (see
    /// [`crate::rng`]): `Stream` — the serial per-visit ChaCha8 draw
    /// stream every paper figure and pre-existing golden pin was
    /// recorded under — or `Keyed`, where each draw is the pure function
    /// `mix(seed, cycle, site, id)`, so parked heads draw nothing. The
    /// two modes produce different (equally valid) random sequences and
    /// therefore separate golden-pin families; within a mode, results
    /// are bit-identical across wake scheduling, fast-forward and
    /// profiler cadence. Also `DRAIN_RNG=stream|keyed` in the bench
    /// harness.
    pub rng_mode: RngMode,
    /// Idle-cycle fast-forward: when nothing can happen before cycle `T`
    /// (no VC becomes ready, no queued injection, no ejection backlog, and
    /// mechanism/endpoints are idle too), jump the clock straight to `T`.
    /// Results are bit-identical either way — the skipped cycles are
    /// provably no-ops — so this is purely a simulator-speed knob. It is
    /// automatically ineffective while event tracing or per-cycle
    /// invariant checks are active (those observers need every tick).
    /// Telemetry sampling *coexists* with fast-forward: a jump over one
    /// or more sampling boundaries emits a single sample stamped at the
    /// last elided boundary (the network is frozen across the jump, so
    /// the sample is exact and `Stats` stay bit-identical either way).
    pub fast_forward: bool,
    /// Wake-driven Phase A scheduling: heads whose routing pass produced
    /// no feasible move are *parked* (a timed wake deadline plus
    /// subscriptions on the output links their candidates named) and
    /// skipped by later Phase A sweeps until a vacate/timeout can have
    /// changed the answer. Spurious wakes are allowed, missed wakes are
    /// impossible, and parked heads still consume their RNG draw, so
    /// results are bit-identical either way — purely a simulator-speed
    /// knob (see DESIGN.md §9). Disable to force the dense re-route-every-
    /// cycle scan (parity testing; also `DRAIN_PHASE_A=dense` in the
    /// bench harness).
    pub wake_scheduler: bool,
    /// Runtime invariant checks (all off by default; see
    /// [`crate::check`]).
    pub checks: CheckConfig,
    /// Observability: event tracing, telemetry sampling, flight recorder
    /// (all off by default; see [`crate::trace`] and
    /// [`crate::telemetry`]).
    pub trace: TraceConfig,
    /// Metrics & phase profiling (profiler off by default; see
    /// [`crate::metrics`]). Pure observers: enabling them cannot change
    /// `Stats`, traces or the RNG draw schedule.
    pub metrics: MetricsConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            vns: 3,
            vcs_per_vn: 2,
            num_classes: 3,
            data_packet_flits: 5,
            ctrl_packet_flits: 1,
            router_latency: 1,
            link_latency: 1,
            inj_queue_capacity: 1 << 20,
            ej_queue_capacity: 4,
            escape_sticky: false,
            escape_entry_patience: 1,
            deadlock_check_interval: 0,
            watchdog_threshold: 100_000,
            seed: 0xD4A1,
            rng_mode: RngMode::Stream,
            fast_forward: true,
            wake_scheduler: true,
            checks: CheckConfig::default(),
            trace: TraceConfig::default(),
            metrics: MetricsConfig::default(),
        }
    }
}

impl SimConfig {
    /// The paper's default DRAIN configuration: one virtual network with
    /// two VCs (VN-1, VC-2), escape VC sticky.
    pub fn drain_default() -> Self {
        SimConfig {
            vns: 1,
            vcs_per_vn: 2,
            escape_sticky: true,
            ..SimConfig::default()
        }
    }

    /// DRAIN with the same number of virtual networks as the baselines
    /// (VN-3, VC-2).
    pub fn drain_vn3() -> Self {
        SimConfig {
            vns: 3,
            vcs_per_vn: 2,
            escape_sticky: true,
            ..SimConfig::default()
        }
    }

    /// DRAIN with one virtual network but the baselines' total VC count
    /// (VN-1, VC-6).
    pub fn drain_vc6() -> Self {
        SimConfig {
            vns: 1,
            vcs_per_vn: 6,
            escape_sticky: true,
            ..SimConfig::default()
        }
    }

    /// The escape-VC baseline: 3 VNs × 2 VCs, sticky escape.
    pub fn escape_vc_baseline() -> Self {
        SimConfig {
            escape_sticky: true,
            ..SimConfig::default()
        }
    }

    /// The SPIN baseline: 3 VNs × 2 VCs, no escape restrictions.
    pub fn spin_baseline() -> Self {
        SimConfig::default()
    }

    /// Total VCs per input port.
    pub fn total_vcs(&self) -> usize {
        self.vns * self.vcs_per_vn
    }

    /// Virtual network used by a message class.
    pub fn vn_of_class(&self, class: crate::MessageClass) -> usize {
        class.index() % self.vns
    }

    /// Longest packet supported (drives the pre-drain window length).
    pub fn max_packet_flits(&self) -> u32 {
        self.data_packet_flits.max(self.ctrl_packet_flits)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any field is degenerate (zero VNs/VCs/classes or zero-size
    /// packets).
    pub fn validate(&self) {
        assert!(self.vns > 0, "need at least one virtual network");
        assert!(self.vcs_per_vn > 0, "need at least one VC per VN");
        assert!(self.num_classes > 0, "need at least one message class");
        assert!(self.num_classes <= 8, "at most 8 message classes supported");
        assert!(self.data_packet_flits > 0 && self.ctrl_packet_flits > 0);
        assert!(self.ej_queue_capacity > 0, "ejection queues need capacity");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MessageClass;

    #[test]
    fn defaults_match_table2() {
        let c = SimConfig::default();
        assert_eq!(c.total_vcs(), 6);
        assert_eq!(c.data_packet_flits, 5);
        assert_eq!(c.router_latency, 1);
        c.validate();
    }

    #[test]
    fn drain_configs() {
        assert_eq!(SimConfig::drain_default().total_vcs(), 2);
        assert_eq!(SimConfig::drain_vn3().total_vcs(), 6);
        assert_eq!(SimConfig::drain_vc6().total_vcs(), 6);
        assert!(SimConfig::drain_default().escape_sticky);
    }

    #[test]
    fn class_to_vn_mapping() {
        let c = SimConfig::drain_default();
        assert_eq!(c.vn_of_class(MessageClass::REQUEST), 0);
        assert_eq!(c.vn_of_class(MessageClass::RESPONSE), 0);
        let c3 = SimConfig::default();
        assert_eq!(c3.vn_of_class(MessageClass::RESPONSE), 2);
    }

    #[test]
    #[should_panic(expected = "virtual network")]
    fn zero_vns_rejected() {
        SimConfig {
            vns: 0,
            ..SimConfig::default()
        }
        .validate();
    }
}
