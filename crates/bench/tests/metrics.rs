//! Regression tests for the unified metrics registry and the kernel
//! phase profiler:
//!
//! 1. the profiler is a pure observer — the same seeded point produces
//!    identical [`drain_netsim::Stats`], the same final cycle and
//!    byte-identical traces with profiling off and on;
//! 2. telemetry sampling coexists with idle fast-forward — stats and
//!    final cycle are bit-identical with the gate off and on, sample
//!    stamps always sit on window boundaries, and cumulative link-flit
//!    accounting agrees to the flit;
//! 3. a real simulation's Prometheus exposition parses back and
//!    re-encodes byte-identically, with registry counters agreeing with
//!    [`drain_netsim::Stats`];
//! 4. `MetricsSnapshot::merge` is associative (property-based), so
//!    fan-in order across sweep workers never changes the exposition.

use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{MetricsSnapshot, Stats, TraceConfig, TraceSink};
use drain_topology::faults::FaultInjector;
use drain_topology::Topology;

/// The small irregular topology the differentials run on (same one the
/// determinism suite uses).
fn irregular_topo() -> Topology {
    FaultInjector::new(9)
        .remove_links(&Topology::mesh(4, 4), 2)
        .expect("mesh(4,4) tolerates two removals")
}

/// One seeded point with the phase profiler at `period` (0 = off).
/// Returns stats, final cycle, and trace bytes.
fn profiled_point(scheme: Scheme, period: u64) -> (Stats, u64, String) {
    let topo = irregular_topo();
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
    sim.set_profile_period(period);
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    sim.run(2_000);
    let trace: String = sim
        .core_mut()
        .tracer_mut()
        .take_memory()
        .expect("memory sink installed")
        .iter()
        .map(|e| e.to_jsonl() + "\n")
        .collect();
    assert!(!trace.is_empty());
    (sim.stats().clone(), sim.core().cycle(), trace)
}

/// Profiler differential: every headline scheme must produce identical
/// `Stats` (every counter and full latency histograms), the same final
/// cycle and byte-identical traces with the profiler off and sampling
/// every 32nd cycle.
#[test]
fn profiler_is_bit_identical_off_and_on() {
    for scheme in Scheme::headline() {
        let (off, cycle_off, trace_off) = profiled_point(scheme, 0);
        let (on, cycle_on, trace_on) = profiled_point(scheme, 32);
        assert_eq!(
            off,
            on,
            "{}: stats must not depend on the profiler",
            scheme.label()
        );
        assert_eq!(
            cycle_off,
            cycle_on,
            "{}: final cycle must not depend on the profiler",
            scheme.label()
        );
        assert_eq!(
            trace_off,
            trace_on,
            "{}: trace bytes must not depend on the profiler",
            scheme.label()
        );
        assert!(off.ejected > 0, "{} delivered nothing", scheme.label());
    }
}

/// Telemetry × fast-forward differential, on a workload where the gate
/// provably engages: scripted bursts separated by long idle gaps, with
/// telemetry sampling every 64 cycles. The fast leg must skip thousands
/// of cycles yet reproduce the stepped leg's stats, final cycle, and
/// cumulative per-link flit accounting exactly; every sample stamp (on
/// both legs) must sit on a window boundary.
#[test]
fn telemetry_sampling_coexists_with_fast_forward() {
    use drain_core::{DrainConfig, DrainMechanism};
    use drain_netsim::mechanism::Mechanism;
    use drain_netsim::routing::FullyAdaptive;
    use drain_netsim::traffic::{InjectionEvent, TraceTraffic};
    use drain_netsim::{MessageClass, Sim, SimConfig, TelemetrySample};
    use drain_path::DrainPath;
    use drain_topology::NodeId;

    const PERIOD: u64 = 64;

    let topo = irregular_topo();
    let n = topo.num_nodes() as u16;
    let mut events = Vec::new();
    for (burst, start) in [(0u64, 0u64), (1, 5_000), (2, 15_000)] {
        for i in 0..8u16 {
            events.push(InjectionEvent {
                cycle: start + u64::from(i / 4),
                src: NodeId((i * 3 + burst as u16) % n),
                dest: NodeId((i * 5 + 7 + burst as u16) % n),
                class: MessageClass::REQUEST,
                len_flits: 1,
            });
        }
    }
    let run = |ff: bool| -> (Stats, u64, u64, Vec<TelemetrySample>, Vec<u64>) {
        let topo = std::sync::Arc::new(irregular_topo());
        let path = DrainPath::compute(&topo).expect("connected");
        let mech: Box<dyn Mechanism> = Box::new(DrainMechanism::new(
            path,
            DrainConfig {
                epoch: 2_048,
                ..DrainConfig::default()
            },
        ));
        let num_links = topo.num_unidirectional_links();
        let mut sim = Sim::new(
            std::sync::Arc::clone(&topo),
            SimConfig {
                num_classes: 1,
                seed: 5,
                trace: TraceConfig::default().with_telemetry(PERIOD),
                ..SimConfig::drain_default()
            },
            Box::new(FullyAdaptive::new(topo)),
            mech,
            Box::new(TraceTraffic::new(events.clone())),
        );
        sim.set_fast_forward(ff);
        sim.run(30_000);
        let cumulative: Vec<u64> = (0..num_links)
            .map(|l| sim.core().telemetry().total_link_flits(l))
            .collect();
        (
            sim.stats().clone(),
            sim.core().cycle(),
            sim.ff_cycles_skipped(),
            sim.core_mut().telemetry_mut().take_samples(),
            cumulative,
        )
    };

    let (stats_off, cycle_off, skipped_off, samples_off, links_off) = run(false);
    let (stats_on, cycle_on, skipped_on, samples_on, links_on) = run(true);

    assert_eq!(skipped_off, 0, "gate off must step every cycle");
    assert!(
        skipped_on > 5_000,
        "bursty idle gaps must fast-forward thousands of cycles, got {skipped_on}"
    );
    assert_eq!(stats_off, stats_on, "fast-forward changed the stats");
    assert_eq!(cycle_off, cycle_on, "fast-forward changed the final cycle");
    assert_eq!(
        links_off, links_on,
        "cumulative per-link flit accounting must not depend on the gate"
    );

    // Every sample stamp — stepped or jump-emitted — sits on a window
    // boundary (the window's last cycle).
    for s in samples_off.iter().chain(&samples_on) {
        assert_eq!(
            (s.cycle + 1) % PERIOD,
            0,
            "sample at cycle {} is not on a boundary",
            s.cycle
        );
    }
    // The fast leg collapses each idle stretch into one jump-emitted
    // sample, so it takes strictly fewer samples — but both legs must
    // account for the same total traffic.
    assert!(!samples_on.is_empty());
    assert!(
        samples_on.len() < samples_off.len(),
        "fast leg must elide idle sample boundaries ({} vs {})",
        samples_on.len(),
        samples_off.len()
    );
    let windowed = |samples: &[TelemetrySample]| -> u64 {
        samples.iter().map(|s| s.total_flits()).sum()
    };
    assert_eq!(
        windowed(&samples_off),
        windowed(&samples_on),
        "summed window deltas must agree between the legs"
    );
    // Jump-emitted samples describe idle stretches: state frozen, so the
    // matching stepped-leg sample (same stamp) shows identical occupancy.
    for s_on in &samples_on {
        let s_off = samples_off
            .iter()
            .find(|s| s.cycle == s_on.cycle)
            .expect("every fast-leg stamp exists on the stepped leg");
        assert_eq!(
            s_off.routers.iter().map(|r| r.occupied_vcs).collect::<Vec<_>>(),
            s_on.routers.iter().map(|r| r.occupied_vcs).collect::<Vec<_>>(),
            "occupancy at stamp {} must not depend on the gate",
            s_on.cycle
        );
    }
}

/// A real simulation's exposition must round-trip through the text
/// format byte-identically, and the registry must agree with `Stats`.
#[test]
fn prometheus_round_trips_on_a_real_snapshot() {
    let topo = irregular_topo();
    let mut sim = Scheme::headline()[0].synthetic_sim_traced(
        &topo,
        false,
        SyntheticPattern::UniformRandom,
        0.10,
        11,
        512,
        1,
        TraceConfig::default().with_telemetry(64),
    );
    sim.set_profile_period(32);
    sim.run(3_000);

    let snap = sim.metrics_snapshot();
    let stats = sim.stats();
    assert_eq!(
        snap.counter_value("drain_packets_ejected_total"),
        Some(stats.ejected)
    );
    assert_eq!(
        snap.counter_value("drain_packets_injected_total"),
        Some(stats.injected)
    );
    assert_eq!(snap.counter_value("drain_hops_total"), Some(stats.hops));
    assert!(
        snap.counter_value("drain_profile_sampled_cycles_total").unwrap_or(0) > 0,
        "profiler must have sampled"
    );
    assert!(
        snap.counter_value("drain_telemetry_samples_taken_total").unwrap_or(0) > 0,
        "telemetry must have sampled"
    );

    let text = snap.to_prometheus();
    let reparsed = MetricsSnapshot::parse_prometheus(&text)
        .expect("real exposition parses");
    assert_eq!(
        reparsed.to_prometheus(),
        text,
        "exposition must round-trip byte-identically"
    );
    assert_eq!(
        reparsed.counter_value("drain_packets_ejected_total"),
        Some(stats.ejected)
    );
}

mod merge_associativity {
    use super::*;
    use drain_netsim::HistogramSnapshot;
    use proptest::prelude::*;

    /// A small arbitrary registry: a counter, a labeled counter, a gauge
    /// and a histogram whose samples are derived from `hist_seed` (the
    /// vendored proptest has no collection strategies, so an LCG stands
    /// in for an arbitrary sample vector).
    fn snapshot(c: u64, labeled: u64, g: i64, hist_seed: u64) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.counter("t_counter_total", "c", c);
        m.counter_labeled("t_labeled_total", "l", &[("k", "a")], labeled);
        m.gauge("t_gauge", "g", g as f64);
        let mut h = HistogramSnapshot::default();
        let mut x = hist_seed;
        for _ in 0..(hist_seed % 8) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 48);
        }
        m.histogram("t_hist", "h", h);
        m
    }

    proptest! {
        /// merge(merge(a, b), c) == merge(a, merge(b, c)) — compared on
        /// the wire format, so sample ordering and float rendering are
        /// covered too. Gauges are right-biased in both groupings, so
        /// associativity holds for every kind.
        #[test]
        fn merge_is_associative(
            a in (any::<u64>(), any::<u64>(), -1000i64..1000, any::<u64>()),
            b in (any::<u64>(), any::<u64>(), -1000i64..1000, any::<u64>()),
            c in (any::<u64>(), any::<u64>(), -1000i64..1000, any::<u64>()),
        ) {
            // Keep counters small enough that three-way sums cannot wrap.
            let mk = |t: &(u64, u64, i64, u64)| {
                snapshot(t.0 % (1 << 40), t.1 % (1 << 40), t.2, t.3)
            };
            let (sa, sb, sc) = (mk(&a), mk(&b), mk(&c));

            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);

            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut right = sa.clone();
            right.merge(&bc);

            prop_assert_eq!(left.to_prometheus(), right.to_prometheus());
        }
    }
}
