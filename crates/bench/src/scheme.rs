//! Evaluated schemes and their correct assembly (paper Table II).

use drain_baselines::assemble::{baseline_sim_with_config, Baseline};
use drain_coherence::{CoherenceConfig, CoherenceEngine};
use drain_core::{DrainConfig, DrainMechanism};
use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{Endpoints, SyntheticPattern, SyntheticTraffic};
use drain_netsim::{Sim, SimConfig, TraceConfig};
use drain_path::DrainPath;
use drain_topology::Topology;
use drain_workloads::{AppModel, AppTrace};

use crate::knobs;

/// DRAIN buffer configurations evaluated in Figs 12/13.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DrainVariant {
    /// VN-1, VC-2 (the paper's default).
    Vn1Vc2,
    /// VN-3, VC-2 (same virtual networks as the baselines).
    Vn3Vc2,
    /// VN-1, VC-6 (same total VCs as the baselines).
    Vn1Vc6,
}

impl DrainVariant {
    fn sim_config(self) -> SimConfig {
        match self {
            DrainVariant::Vn1Vc2 => SimConfig::drain_default(),
            DrainVariant::Vn3Vc2 => SimConfig::drain_vn3(),
            DrainVariant::Vn1Vc6 => SimConfig::drain_vc6(),
        }
    }

    /// Label used in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            DrainVariant::Vn1Vc2 => "DRAIN (VN-1,VC-2)",
            DrainVariant::Vn3Vc2 => "DRAIN (VN-3,VC-2)",
            DrainVariant::Vn1Vc6 => "DRAIN (VN-1,VC-6)",
        }
    }
}

/// Applies the `DRAIN_PHASE_A` environment override to a simulator
/// configuration: `dense` forces the re-route-every-cycle Phase A scan
/// (wake scheduler off) — the parity/baseline mode for the wake-vs-dense
/// differentials and `bench_kernel.sh --baseline` — while `wake`
/// (re-)selects the default wake-driven scheduler. Both modes are
/// bit-identical, so the result cache deliberately does not key on this.
/// Honoured by every [`Scheme`]-built simulation and by the differential
/// oracle (so `drain_fuzz` can be forced onto either path).
pub fn phase_a_env_override(config: &mut SimConfig) {
    if let Some(wake) = knobs::PHASE_A.get() {
        config.wake_scheduler = wake;
    }
}

/// Applies the `DRAIN_RNG` environment override to a simulator
/// configuration: `keyed` selects the counter-based keyed sample mixer
/// (draws are pure functions of `(seed, cycle, site, id)` — see
/// [`drain_netsim::rng`]), `stream` (re-)selects the default serial
/// draw stream. The two modes produce *different* (equally valid)
/// random sequences — results are NOT bit-identical across modes, only
/// within one — so unlike `DRAIN_PHASE_A` this knob is
/// for the keyed pin family, differentials and benchmarks, not for
/// transparently re-running cached figures. Honoured by every
/// [`Scheme`]-built simulation and by the differential oracle (it
/// overrides `drain_fuzz --rng-mode`).
pub fn rng_env_override(config: &mut SimConfig) {
    if let Some(mode) = knobs::RNG.get() {
        config.rng_mode = mode;
    }
}

/// One evaluated scheme.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Escape-VC proactive baseline.
    EscapeVc,
    /// SPIN reactive baseline.
    Spin,
    /// DRAIN with the given buffer configuration.
    Drain(DrainVariant),
    /// Pure up*/down* (Fig 5 only).
    UpDown,
    /// Ideal deadlock-free adaptive oracle (Fig 5 only).
    Ideal,
    /// No protection (Fig 3 only).
    Unprotected,
}

impl Scheme {
    /// The three schemes of the headline comparisons (Figs 10/11/15).
    pub fn headline() -> [Scheme; 3] {
        [
            Scheme::EscapeVc,
            Scheme::Spin,
            Scheme::Drain(DrainVariant::Vn1Vc2),
        ]
    }

    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::EscapeVc => "EscapeVC",
            Scheme::Spin => "SPIN",
            Scheme::Drain(v) => v.label(),
            Scheme::UpDown => "up*/down*",
            Scheme::Ideal => "Ideal",
            Scheme::Unprotected => "Unprotected",
        }
    }

    /// The drain epoch used by experiments (paper default 64K; override
    /// via `epoch` for the Fig 14 sweep).
    pub const DEFAULT_EPOCH: u64 = 65_536;

    #[allow(clippy::too_many_arguments)]
    fn build(
        self,
        topo: &Topology,
        full_mesh: bool,
        endpoints: Box<dyn Endpoints>,
        mut config: SimConfig,
        epoch: u64,
        hops_per_drain: u32,
        seed: u64,
    ) -> Sim {
        config.seed = seed;
        phase_a_env_override(&mut config);
        rng_env_override(&mut config);
        // `DRAIN_PROFILE=P` turns on the kernel phase profiler (sample
        // every P cycles) for every experiment simulation. The profiler
        // is a pure observer — bit-identical results at any cadence,
        // enforced by the metrics differential suite and the golden pins
        // — so the result cache deliberately does not key on it either.
        if let Some(p) = knobs::PROFILE.get() {
            config.metrics.profile_period = p;
        }
        match self {
            Scheme::Drain(_) => {
                let path = DrainPath::compute(topo).expect("connected topology");
                let mech = DrainMechanism::new(
                    path,
                    DrainConfig {
                        epoch,
                        hops_per_drain,
                        ..DrainConfig::default()
                    },
                );
                // One clone, shared between routing and core.
                let topo = std::sync::Arc::new(topo.clone());
                Sim::new(
                    std::sync::Arc::clone(&topo),
                    config,
                    Box::new(FullyAdaptive::new(topo)),
                    Box::new(mech),
                    endpoints,
                )
            }
            Scheme::EscapeVc => {
                baseline_sim_with_config(topo, Baseline::EscapeVc, full_mesh, endpoints, config)
            }
            Scheme::Spin => {
                baseline_sim_with_config(topo, Baseline::Spin, full_mesh, endpoints, config)
            }
            Scheme::UpDown => {
                baseline_sim_with_config(topo, Baseline::UpDown, full_mesh, endpoints, config)
            }
            Scheme::Ideal => {
                baseline_sim_with_config(topo, Baseline::Ideal, full_mesh, endpoints, config)
            }
            Scheme::Unprotected => baseline_sim_with_config(
                topo,
                Baseline::Unprotected,
                full_mesh,
                endpoints,
                config,
            ),
        }
    }

    /// Base simulator configuration for this scheme (synthetic runs:
    /// single message class, watchdog disabled — measurement harnesses
    /// decide their own instrumentation).
    fn synthetic_config(self) -> SimConfig {
        let mut c = match self {
            Scheme::Drain(v) => v.sim_config(),
            Scheme::EscapeVc => SimConfig::escape_vc_baseline(),
            Scheme::Spin => SimConfig::spin_baseline(),
            Scheme::UpDown | Scheme::Ideal | Scheme::Unprotected => SimConfig::default(),
        };
        c.num_classes = 1;
        c.watchdog_threshold = 0;
        c
    }

    /// Builds a synthetic-traffic simulation (Figs 5/10/11/14).
    pub fn synthetic_sim(
        self,
        topo: &Topology,
        full_mesh: bool,
        pattern: SyntheticPattern,
        rate: f64,
        seed: u64,
        epoch: u64,
    ) -> Sim {
        self.synthetic_sim_hops(topo, full_mesh, pattern, rate, seed, epoch, 1)
    }

    /// [`Scheme::synthetic_sim`] with an explicit hops-per-drain-window
    /// setting (the Fig 14 footnote-3 ablation; every other experiment
    /// uses the paper's 1 hop per window).
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic_sim_hops(
        self,
        topo: &Topology,
        full_mesh: bool,
        pattern: SyntheticPattern,
        rate: f64,
        seed: u64,
        epoch: u64,
        hops_per_drain: u32,
    ) -> Sim {
        self.synthetic_sim_traced(
            topo,
            full_mesh,
            pattern,
            rate,
            seed,
            epoch,
            hops_per_drain,
            TraceConfig::default(),
        )
    }

    /// [`Scheme::synthetic_sim_hops`] with an observability configuration
    /// (event capture / telemetry sampling / flight recorder); used by the
    /// `drain-trace` inspector. A sink is installed separately via
    /// [`Sim::set_trace_sink`].
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic_sim_traced(
        self,
        topo: &Topology,
        full_mesh: bool,
        pattern: SyntheticPattern,
        rate: f64,
        seed: u64,
        epoch: u64,
        hops_per_drain: u32,
        trace: TraceConfig,
    ) -> Sim {
        let traffic = SyntheticTraffic::new(pattern, rate, 1, seed ^ 0x7AFF1C);
        let mut config = self.synthetic_config();
        config.trace = trace;
        self.build(
            topo,
            full_mesh,
            Box::new(traffic),
            config,
            epoch,
            hops_per_drain,
            seed,
        )
    }

    /// Builds a coherence-workload simulation (Figs 12/13/15). The
    /// watchdog threshold is set above the drain epoch so DRAIN's
    /// let-it-deadlock window is not misreported.
    pub fn coherence_sim(
        self,
        topo: &Topology,
        full_mesh: bool,
        app: &AppModel,
        quota: Option<u64>,
        seed: u64,
        epoch: u64,
    ) -> Sim {
        let mut config = match self {
            Scheme::Drain(v) => v.sim_config(),
            Scheme::EscapeVc => SimConfig::escape_vc_baseline(),
            Scheme::Spin => SimConfig::spin_baseline(),
            Scheme::UpDown | Scheme::Ideal | Scheme::Unprotected => SimConfig::default(),
        };
        config.num_classes = 3;
        config.inj_queue_capacity = (topo.num_nodes() + 8).max(64);
        config.watchdog_threshold = 4 * epoch;
        let mut trace = AppTrace::new(app.clone(), topo.num_nodes(), seed ^ 0xA99);
        if let Some(q) = quota {
            trace = trace.with_quota(q);
        }
        let engine = CoherenceEngine::new(
            topo,
            CoherenceConfig {
                seed: seed ^ 0xC0,
                ..CoherenceConfig::default()
            },
            Box::new(trace),
        );
        self.build(topo, full_mesh, Box::new(engine), config, epoch, 1, seed)
    }
}

/// Workload family used by a figure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Open-loop synthetic pattern.
    Synthetic,
    /// Closed-loop coherence application model.
    Application,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_schemes_build_and_run() {
        let topo = Topology::mesh(4, 4);
        for s in Scheme::headline() {
            let mut sim = s.synthetic_sim(
                &topo,
                true,
                SyntheticPattern::UniformRandom,
                0.05,
                1,
                Scheme::DEFAULT_EPOCH,
            );
            sim.run(2_000);
            assert!(sim.stats().ejected > 0, "{}", s.label());
        }
    }

    #[test]
    fn coherence_schemes_build_and_run() {
        let topo = Topology::mesh(4, 4);
        let app = drain_workloads::app_by_name("blackscholes").unwrap();
        for s in [Scheme::EscapeVc, Scheme::Drain(DrainVariant::Vn1Vc2)] {
            let mut sim = s.coherence_sim(&topo, true, &app, None, 2, 8_192);
            sim.run(5_000);
            assert!(sim.stats().ejected > 0, "{}", s.label());
        }
    }

    #[test]
    fn every_sim_shares_one_distance_map() {
        use drain_topology::{chiplet::random_connected, faults::FaultInjector};
        use std::sync::Arc;
        let mesh = Topology::mesh(4, 4);
        let topos = [
            (FaultInjector::new(3).remove_links(&mesh, 3).unwrap(), false),
            (random_connected(24, 3.0, 5), false),
            (mesh, true),
        ];
        for (topo, full_mesh) in &topos {
            let sim = |s: Scheme| {
                s.synthetic_sim(
                    topo,
                    *full_mesh,
                    SyntheticPattern::UniformRandom,
                    0.05,
                    1,
                    Scheme::DEFAULT_EPOCH,
                )
            };
            for s in Scheme::headline() {
                let sim = sim(s);
                let core = sim.core();
                let routing_map = core
                    .routing()
                    .distance_map()
                    .expect("headline routings keep a distance map");
                assert!(
                    Arc::ptr_eq(core.distance_map(), routing_map),
                    "{} on {}: core and routing hold separate maps",
                    s.label(),
                    topo.name()
                );
            }
            // Pure up*/down* keeps no map; the core's is the only one.
            assert!(sim(Scheme::UpDown).core().routing().distance_map().is_none());
        }
    }

    #[test]
    fn labels_are_unique() {
        let all = [
            Scheme::EscapeVc,
            Scheme::Spin,
            Scheme::Drain(DrainVariant::Vn1Vc2),
            Scheme::Drain(DrainVariant::Vn3Vc2),
            Scheme::Drain(DrainVariant::Vn1Vc6),
            Scheme::UpDown,
            Scheme::Ideal,
            Scheme::Unprotected,
        ];
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}
