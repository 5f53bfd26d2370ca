//! Regression tests for the simulator's bit-identity guarantees:
//!
//! 1. parallel sweep execution is bit-identical to serial execution,
//! 2. a warm cache rerun simulates nothing and returns identical points,
//! 3. the occupancy-driven kernel's idle-cycle fast-forward is invisible:
//!    the same seeded point produces identical [`drain_netsim::Stats`] and
//!    byte-identical traces with the gate forced off and on,
//! 4. the wake-driven Phase A scheduler is invisible: the same seeded
//!    point produces identical [`drain_netsim::Stats`], the same final
//!    cycle and byte-identical traces with blocked-VC parking on and with
//!    the dense re-route-every-cycle scan forced,
//! 5. the keyed counter-based RNG (`RngMode::Keyed`) is deterministic by
//!    construction: the same seeded point produces identical
//!    [`drain_netsim::Stats`], the same final cycle, the same draw
//!    counts and byte-identical traces across every cell of the
//!    wake on/off × fast-forward on/off × profiler cadence matrix.

use drain_bench::engine::SweepEngine;
use drain_bench::cache::ResultCache;
use drain_bench::sweep;
use drain_bench::scheme::DrainVariant;
use drain_bench::sweep::plan::{load_sweep_specs, PointSpec, TopoSpec};
use drain_bench::{Scale, Scheme};
use drain_netsim::rng::NUM_DRAW_SITES;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{DrawSite, RngMode, Stats, TraceConfig, TraceSink};
use drain_topology::faults::FaultInjector;
use drain_topology::Topology;

/// The fig10-style grid this test sweeps: one scheme on a 4×4 mesh with
/// two different fault patterns.
fn grid() -> Vec<(TopoSpec, u64)> {
    vec![
        (TopoSpec::mesh_with_faults(4, 4, 2, 41), 41),
        (TopoSpec::mesh_with_faults(4, 4, 2, 42), 42),
    ]
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let pattern = SyntheticPattern::UniformRandom;

    // Serial reference: the plain sweep::load_sweep path, one thread, no
    // engine, no cache.
    let mut serial = Vec::new();
    for (topo, seed) in grid() {
        serial.extend(sweep::load_sweep(
            Scheme::Spin,
            &topo.build(),
            topo.full_mesh(),
            &pattern,
            seed,
            Scheme::DEFAULT_EPOCH,
            Scale::Quick,
        ));
    }

    // Parallel run: same grid through the engine on several workers.
    let specs: Vec<PointSpec> = grid()
        .into_iter()
        .flat_map(|(topo, seed)| {
            load_sweep_specs(
                Scheme::Spin,
                &topo,
                &pattern,
                seed,
                Scheme::DEFAULT_EPOCH,
                Scale::Quick,
            )
        })
        .collect();
    let mut engine = SweepEngine::with("determinism", Scale::Quick, 4, ResultCache::disabled());
    let parallel = engine.run_points(&specs);

    assert_eq!(
        serial, parallel,
        "parallel sweep must be point-for-point identical to serial"
    );
}

#[test]
fn warm_cache_rerun_runs_zero_simulations() {
    let dir = std::env::temp_dir().join(format!(
        "drain-determinism-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let specs: Vec<PointSpec> = grid()
        .into_iter()
        .flat_map(|(topo, seed)| {
            load_sweep_specs(
                Scheme::Spin,
                &topo,
                &SyntheticPattern::Neighbor,
                seed,
                Scheme::DEFAULT_EPOCH,
                Scale::Quick,
            )
        })
        .collect();

    let mut cold = SweepEngine::with("detcold", Scale::Quick, 2, ResultCache::at(&dir));
    let first = cold.run_points(&specs);
    let cold_report = cold.report();
    assert_eq!(cold_report.simulated, specs.len());
    assert_eq!(cold_report.cache_hits, 0);

    let mut warm = SweepEngine::with("detwarm", Scale::Quick, 2, ResultCache::at(&dir));
    let second = warm.run_points(&specs);
    let warm_report = warm.report();
    assert_eq!(warm_report.simulated, 0, "warm rerun must simulate nothing");
    assert_eq!(warm_report.cache_hits, specs.len());
    assert_eq!(first, second, "cached points must round-trip bit-identically");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The small irregular topology the fast-forward differentials run on.
fn irregular_topo() -> Topology {
    FaultInjector::new(9)
        .remove_links(&Topology::mesh(4, 4), 2)
        .expect("mesh(4,4) tolerates two removals")
}

/// One seeded point with the fast-forward gate forced to `ff`.
fn point_stats(scheme: Scheme, rate: f64, ff: bool) -> (Stats, u64, u64) {
    let topo = irregular_topo();
    // A short drain epoch so DRAIN's windows (and their fast-forward
    // horizon/rebase accounting) are exercised inside the run.
    let mut sim =
        scheme.synthetic_sim(&topo, false, SyntheticPattern::UniformRandom, rate, 11, 512);
    sim.set_fast_forward(ff);
    sim.run(6_000);
    (sim.stats().clone(), sim.core().cycle(), sim.ff_cycles_skipped())
}

/// Kernel differential: every headline scheme at a low and a saturated
/// rate must produce identical `Stats` (every counter and full latency
/// histograms) whether idle cycles are stepped or fast-forwarded.
#[test]
fn fast_forward_gate_is_bit_identical_across_schemes() {
    for scheme in Scheme::headline() {
        for rate in [0.01, 0.35] {
            let (off, cycle_off, _) = point_stats(scheme, rate, false);
            let (on, cycle_on, _) = point_stats(scheme, rate, true);
            assert_eq!(
                off,
                on,
                "{} at rate {rate}: stats must not depend on the fast-forward gate",
                scheme.label()
            );
            assert_eq!(
                cycle_off,
                cycle_on,
                "{} at rate {rate}: final cycle must not depend on the gate",
                scheme.label()
            );
            assert!(off.ejected > 0, "{} at rate {rate} delivered nothing", scheme.label());
        }
    }
}

/// Same differential on the trace stream: with event capture on, both
/// gate settings must yield byte-identical JSONL (capture itself pins the
/// clock, and the gate must respect that).
#[test]
fn fast_forward_gate_keeps_traces_byte_identical() {
    let topo = irregular_topo();
    for scheme in Scheme::headline() {
        let traced = |ff: bool| -> String {
            let mut sim = scheme.synthetic_sim_traced(
                &topo,
                false,
                SyntheticPattern::UniformRandom,
                0.10,
                11,
                512,
                1,
                TraceConfig::events_on(),
            );
            sim.set_fast_forward(ff);
            sim.set_trace_sink(TraceSink::Memory(Vec::new()));
            sim.run(2_000);
            let events = sim
                .core_mut()
                .tracer_mut()
                .take_memory()
                .expect("memory sink installed");
            assert!(!events.is_empty());
            events
                .iter()
                .map(|e| e.to_jsonl() + "\n")
                .collect()
        };
        assert_eq!(
            traced(false),
            traced(true),
            "{}: trace bytes must not depend on the fast-forward gate",
            scheme.label()
        );
    }
}

/// One seeded point with the wake scheduler set to `wake`. Returns the
/// wake counters too, so callers can assert the parking path actually
/// engaged.
fn point_stats_wake(
    scheme: Scheme,
    rate: f64,
    wake: bool,
) -> (Stats, u64, drain_netsim::WakeCounters) {
    let topo = irregular_topo();
    let mut sim =
        scheme.synthetic_sim(&topo, false, SyntheticPattern::UniformRandom, rate, 11, 512);
    sim.set_wake_scheduler(wake);
    sim.run(6_000);
    (
        sim.stats().clone(),
        sim.core().cycle(),
        sim.core().wake_counters(),
    )
}

/// Wake-scheduler differential: every headline scheme at a low and a
/// saturated rate must produce identical `Stats` (every counter and full
/// latency histograms) and the same final cycle whether blocked VCs park
/// on wake subscriptions or the dense Phase A scan re-routes them every
/// cycle.
#[test]
fn wake_scheduler_is_bit_identical_to_dense_scan() {
    for scheme in Scheme::headline() {
        for rate in [0.01, 0.35] {
            let (dense, dense_cycle, dense_ctrs) = point_stats_wake(scheme, rate, false);
            let (wake, wake_cycle, wake_ctrs) = point_stats_wake(scheme, rate, true);
            assert_eq!(
                dense,
                wake,
                "{} at rate {rate}: stats must not depend on the wake scheduler",
                scheme.label()
            );
            assert_eq!(
                dense_cycle,
                wake_cycle,
                "{} at rate {rate}: final cycle must not depend on the wake scheduler",
                scheme.label()
            );
            assert!(wake.ejected > 0, "{} at rate {rate} delivered nothing", scheme.label());
            assert_eq!(
                dense_ctrs.parks, 0,
                "dense scan must never park ({})",
                scheme.label()
            );
            if rate > 0.1 {
                assert!(
                    wake_ctrs.parks > 0 && wake_ctrs.skips > 0,
                    "{} saturated: wake scheduler never engaged ({wake_ctrs:?})",
                    scheme.label()
                );
            }
        }
    }
}

/// Same differential on the trace stream: with event capture on, the
/// wake-driven and dense Phase A schedulers must yield byte-identical
/// JSONL.
#[test]
fn wake_scheduler_keeps_traces_byte_identical() {
    let topo = irregular_topo();
    for scheme in Scheme::headline() {
        let traced = |wake: bool| -> String {
            let mut sim = scheme.synthetic_sim_traced(
                &topo,
                false,
                SyntheticPattern::UniformRandom,
                0.10,
                11,
                512,
                1,
                TraceConfig::events_on(),
            );
            sim.set_wake_scheduler(wake);
            sim.set_trace_sink(TraceSink::Memory(Vec::new()));
            sim.run(2_000);
            let events = sim
                .core_mut()
                .tracer_mut()
                .take_memory()
                .expect("memory sink installed");
            assert!(!events.is_empty());
            events
                .iter()
                .map(|e| e.to_jsonl() + "\n")
                .collect()
        };
        assert_eq!(
            traced(false),
            traced(true),
            "{}: trace bytes must not depend on the wake scheduler",
            scheme.label()
        );
    }
}

/// One seeded keyed-mode point across the full determinism matrix: wake
/// scheduler, fast-forward gate, profiler cadence. Returns the per-site
/// draw counts too, so callers can prove that parked heads draw nothing.
fn point_stats_keyed(
    scheme: Scheme,
    rate: f64,
    wake: bool,
    ff: bool,
    profile_period: u64,
) -> (Stats, u64, [u64; NUM_DRAW_SITES]) {
    let topo = irregular_topo();
    let mut sim =
        scheme.synthetic_sim(&topo, false, SyntheticPattern::UniformRandom, rate, 11, 512);
    sim.set_rng_mode(RngMode::Keyed);
    sim.set_wake_scheduler(wake);
    sim.set_fast_forward(ff);
    sim.set_profile_period(profile_period);
    sim.run(6_000);
    (
        sim.stats().clone(),
        sim.core().cycle(),
        sim.core().rng_draw_counts(),
    )
}

/// Keyed-mode differential: every headline scheme at a low and a
/// saturated rate must produce identical `Stats`, the same final cycle
/// *and the same per-site draw counts* with fast-forward on and off.
#[test]
fn keyed_mode_is_bit_identical_across_fast_forward() {
    for scheme in Scheme::headline() {
        for rate in [0.01, 0.35] {
            let (on, on_cycle, on_draws) = point_stats_keyed(scheme, rate, true, true, 0);
            assert!(on.ejected > 0, "{} at rate {rate} delivered nothing", scheme.label());
            let (off, off_cycle, off_draws) = point_stats_keyed(scheme, rate, true, false, 0);
            assert_eq!(
                on,
                off,
                "{} at rate {rate}: keyed stats diverged with fast-forward off",
                scheme.label()
            );
            assert_eq!(on_cycle, off_cycle);
            assert_eq!(
                on_draws,
                off_draws,
                "{} at rate {rate}: keyed draw counts diverged with fast-forward off",
                scheme.label()
            );
        }
    }
}

/// Keyed-mode wake differential: parking is invisible to results, and
/// parked heads provably draw *nothing* — at a saturated rate the
/// wake-scheduled run performs strictly fewer Phase A draws than the
/// dense scan while producing identical `Stats`. (In stream mode the
/// two schedulers draw the same count by contract; the draw saving is
/// the keyed mode's whole point.)
#[test]
fn keyed_wake_scheduler_is_bit_identical_and_parked_heads_draw_nothing() {
    for scheme in Scheme::headline() {
        for rate in [0.01, 0.35] {
            let (dense, dense_cycle, dense_draws) = point_stats_keyed(scheme, rate, false, true, 0);
            let (wake, wake_cycle, wake_draws) = point_stats_keyed(scheme, rate, true, true, 0);
            assert_eq!(
                dense,
                wake,
                "{} at rate {rate}: keyed stats must not depend on the wake scheduler",
                scheme.label()
            );
            assert_eq!(dense_cycle, wake_cycle);
            assert_eq!(
                dense_draws[DrawSite::Injection.index()],
                wake_draws[DrawSite::Injection.index()],
                "wake scheduling must not change injection draws"
            );
            if rate > 0.1 {
                assert!(
                    wake_draws[DrawSite::PhaseA.index()] < dense_draws[DrawSite::PhaseA.index()],
                    "{} saturated: parked heads must skip their draws (wake {} vs dense {})",
                    scheme.label(),
                    wake_draws[DrawSite::PhaseA.index()],
                    dense_draws[DrawSite::PhaseA.index()]
                );
            }
        }
    }
}

/// Keyed-mode profiler-cadence differential: the phase profiler is a
/// pure observer at any cadence, and keyed draws keyed on the actual
/// cycle number cannot be perturbed by it.
#[test]
fn keyed_mode_is_bit_identical_across_profile_cadence() {
    let scheme = Scheme::Drain(DrainVariant::Vn1Vc2);
    let (base, base_cycle, base_draws) = point_stats_keyed(scheme, 0.35, true, true, 0);
    for period in [1u64, 64, 1024] {
        let (got, cycle, draws) = point_stats_keyed(scheme, 0.35, true, true, period);
        assert_eq!(base, got, "profiler cadence {period} perturbed keyed stats");
        assert_eq!(base_cycle, cycle);
        assert_eq!(base_draws, draws);
    }
}

/// Keyed-mode trace differential: with event capture on, the wake-driven
/// and dense Phase A schedulers must yield byte-identical JSONL.
#[test]
fn keyed_mode_keeps_traces_byte_identical() {
    let topo = irregular_topo();
    for scheme in Scheme::headline() {
        let traced = |wake: bool| -> String {
            let mut sim = scheme.synthetic_sim_traced(
                &topo,
                false,
                SyntheticPattern::UniformRandom,
                0.10,
                11,
                512,
                1,
                TraceConfig::events_on(),
            );
            sim.set_rng_mode(RngMode::Keyed);
            sim.set_wake_scheduler(wake);
            sim.set_trace_sink(TraceSink::Memory(Vec::new()));
            sim.run(2_000);
            let events = sim
                .core_mut()
                .tracer_mut()
                .take_memory()
                .expect("memory sink installed");
            assert!(!events.is_empty());
            events
                .iter()
                .map(|e| e.to_jsonl() + "\n")
                .collect()
        };
        assert_eq!(
            traced(true),
            traced(false),
            "{}: keyed trace bytes diverged with the wake scheduler off",
            scheme.label()
        );
    }
}

/// A workload where fast-forward provably engages: scripted bursts with
/// long idle gaps under DRAIN with a short epoch. The fast run must skip
/// a large share of the clock yet reproduce the stepped run's stats,
/// final cycle, and drain-window count exactly.
#[test]
fn fast_forward_engages_on_idle_gaps_and_stays_exact() {
    use drain_core::{DrainConfig, DrainMechanism};
    use drain_netsim::mechanism::Mechanism;
    use drain_netsim::routing::FullyAdaptive;
    use drain_netsim::traffic::{InjectionEvent, TraceTraffic};
    use drain_netsim::{MessageClass, Sim, SimConfig};
    use drain_path::DrainPath;
    use drain_topology::NodeId;

    let topo = irregular_topo();
    let n = topo.num_nodes() as u16;
    // Three bursts separated by thousands of idle cycles.
    let mut events = Vec::new();
    for (burst, start) in [(0u64, 0u64), (1, 5_000), (2, 15_000)] {
        for i in 0..8u16 {
            events.push(InjectionEvent {
                cycle: start + u64::from(i / 4),
                // src ≡ 3i+b, dest ≡ 5i+7+b (mod n): equal only when
                // 2i ≡ -7, impossible for even n — no self-addressed packets.
                src: NodeId((i * 3 + burst as u16) % n),
                dest: NodeId((i * 5 + 7 + burst as u16) % n),
                class: MessageClass::REQUEST,
                len_flits: 1,
            });
        }
    }
    let run = |ff: bool| -> (Stats, u64, u64, u64) {
        let topo = std::sync::Arc::new(irregular_topo());
        let path = DrainPath::compute(&topo).expect("connected");
        let mech: Box<dyn Mechanism> = Box::new(DrainMechanism::new(
            path,
            DrainConfig {
                epoch: 2_048,
                ..DrainConfig::default()
            },
        ));
        let mut sim = Sim::new(
            std::sync::Arc::clone(&topo),
            SimConfig {
                num_classes: 1,
                seed: 5,
                ..SimConfig::drain_default()
            },
            Box::new(FullyAdaptive::new(topo)),
            mech,
            Box::new(TraceTraffic::new(events.clone())),
        );
        sim.set_fast_forward(ff);
        sim.run(30_000);
        (
            sim.stats().clone(),
            sim.core().cycle(),
            sim.ff_cycles_skipped(),
            sim.ff_jumps(),
        )
    };
    let (stats_off, cycle_off, skipped_off, _) = run(false);
    let (stats_on, cycle_on, skipped_on, jumps_on) = run(true);
    assert_eq!(skipped_off, 0, "gate off must step every cycle");
    assert!(
        skipped_on > 5_000,
        "bursty idle gaps must fast-forward thousands of cycles, got {skipped_on}"
    );
    assert!(jumps_on > 0);
    assert_eq!(stats_off, stats_on, "fast-forward changed the stats");
    assert_eq!(cycle_off, cycle_on, "fast-forward changed the final cycle");
    assert_eq!(stats_on.injected, events.len() as u64);
    assert_eq!(stats_on.ejected, events.len() as u64);
    assert!(
        stats_on.drains > 0,
        "short-epoch run must execute drain windows across the gaps"
    );
}
