//! Engine-level unit tests: forced moves, freeze semantics, placement and
//! allocation invariants that the mechanism implementations rely on.

use crate::mechanism::{ControlAction, ForcedKind, ForcedMove, Mechanism, NoMechanism};
use crate::routing::FullyAdaptive;
use crate::traffic::{InjectionEvent, SyntheticPattern, SyntheticTraffic, TraceTraffic};
use crate::{MessageClass, Sim, SimConfig, VcRef};
use drain_topology::{NodeId, Topology};

fn quiet_sim(topo: &Topology, config: SimConfig) -> Sim {
    Sim::new(
        topo.clone(),
        config,
        Box::new(FullyAdaptive::with_deflection(topo, None)),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    )
}

fn single_vc_config() -> SimConfig {
    SimConfig {
        vns: 1,
        vcs_per_vn: 1,
        num_classes: 1,
        watchdog_threshold: 0,
        ..SimConfig::default()
    }
}

#[test]
fn placed_packet_routes_to_destination() {
    let topo = Topology::mesh(3, 3);
    let mut sim = quiet_sim(&topo, single_vc_config());
    let link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
    sim.core_mut().place_packet(
        VcRef { link, vn: 0, vc: 0 },
        NodeId(0),
        NodeId(8),
        MessageClass::REQUEST,
        1,
    );
    sim.run(50);
    assert_eq!(sim.stats().ejected, 1);
    assert_eq!(sim.core().packets_in_network(), 0);
    // 1 -> 8 is 3 hops on the mesh.
    assert_eq!(sim.stats().hops, 3);
}

#[test]
#[should_panic(expected = "occupied")]
fn double_placement_rejected() {
    let topo = Topology::mesh(3, 3);
    let mut sim = quiet_sim(&topo, single_vc_config());
    let link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
    let r = VcRef { link, vn: 0, vc: 0 };
    sim.core_mut()
        .place_packet(r, NodeId(0), NodeId(8), MessageClass::REQUEST, 1);
    sim.core_mut()
        .place_packet(r, NodeId(0), NodeId(7), MessageClass::REQUEST, 1);
}

/// A mechanism that freezes forever after cycle `from`.
struct FreezeAfter(u64);
impl Mechanism for FreezeAfter {
    fn name(&self) -> &str {
        "freeze-after"
    }
    fn control(&mut self, core: &mut crate::SimCore) -> ControlAction {
        if core.cycle() >= self.0 {
            ControlAction::Freeze
        } else {
            ControlAction::Normal
        }
    }
}

#[test]
fn freeze_stops_all_movement() {
    let topo = Topology::mesh(3, 3);
    let mut sim = Sim::new(
        topo.clone(),
        single_vc_config(),
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(FreezeAfter(20)),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.3, 1, 5)),
    );
    sim.run(20);
    let moved_before = sim.stats().hops;
    assert!(moved_before > 0, "sanity: traffic moved before the freeze");
    let in_net = sim.core().packets_in_network();
    sim.run(100);
    assert_eq!(sim.stats().hops, moved_before, "no hops while frozen");
    assert_eq!(sim.core().packets_in_network(), in_net);
}

/// A mechanism that emits one forced move at a scripted cycle.
struct ForceOnce {
    at: u64,
    mv: ForcedMove,
    done: bool,
}
impl Mechanism for ForceOnce {
    fn name(&self) -> &str {
        "force-once"
    }
    fn control(&mut self, core: &mut crate::SimCore) -> ControlAction {
        if !self.done && core.cycle() == self.at {
            self.done = true;
            ControlAction::Forced(vec![self.mv], ForcedKind::Drain)
        } else {
            ControlAction::Freeze // isolate the forced move
        }
    }
}

#[test]
fn forced_move_relocates_packet() {
    let topo = Topology::mesh(3, 3);
    let from_link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
    let to_link = topo.link_between(NodeId(1), NodeId(2)).unwrap();
    let mv = ForcedMove {
        from: VcRef { link: from_link, vn: 0, vc: 0 },
        to: VcRef { link: to_link, vn: 0, vc: 0 },
    };
    let mut sim = Sim::new(
        topo.clone(),
        single_vc_config(),
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(ForceOnce { at: 3, mv, done: false }),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );
    let pid = sim.core_mut().place_packet(
        VcRef { link: from_link, vn: 0, vc: 0 },
        NodeId(0),
        NodeId(6),
        MessageClass::REQUEST,
        1,
    );
    sim.run(10);
    let p = sim.core().packet(pid);
    assert_eq!(
        p.loc,
        crate::Location::Vc { link: to_link, vn: 0, vc: 0 }
    );
    assert_eq!(p.forced_hops, 1);
    assert_eq!(p.hops, 1);
    // Moving 1 -> 2 while heading for 6 is a misroute.
    assert_eq!(p.misroutes, 1);
    assert_eq!(sim.stats().drains, 1);
}

#[test]
fn forced_move_ejects_at_destination() {
    let topo = Topology::mesh(3, 3);
    let from_link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
    let to_link = topo.link_between(NodeId(1), NodeId(2)).unwrap();
    let mv = ForcedMove {
        from: VcRef { link: from_link, vn: 0, vc: 0 },
        to: VcRef { link: to_link, vn: 0, vc: 0 },
    };
    let mut sim = Sim::new(
        topo.clone(),
        single_vc_config(),
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(ForceOnce { at: 3, mv, done: false }),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );
    // Destination is router 2 = head of the forced hop: must eject.
    sim.core_mut().place_packet(
        VcRef { link: from_link, vn: 0, vc: 0 },
        NodeId(0),
        NodeId(2),
        MessageClass::REQUEST,
        1,
    );
    sim.run(10);
    assert_eq!(sim.stats().ejected, 1);
    assert_eq!(sim.core().packets_in_network(), 0);
}

#[test]
fn cyclic_forced_moves_swap_ring_occupants() {
    // Fill a 4-cycle of buffers and rotate them one hop — the drain/spin
    // permutation primitive.
    let topo = Topology::mesh(3, 3);
    let ring = [(0u16, 1u16), (1, 4), (4, 3), (3, 0)];
    let links: Vec<_> = ring
        .iter()
        .map(|&(a, b)| topo.link_between(NodeId(a), NodeId(b)).unwrap())
        .collect();
    let moves: Vec<ForcedMove> = (0..4)
        .map(|i| ForcedMove {
            from: VcRef { link: links[i], vn: 0, vc: 0 },
            to: VcRef { link: links[(i + 1) % 4], vn: 0, vc: 0 },
        })
        .collect();
    struct ForceSet {
        at: u64,
        moves: Vec<ForcedMove>,
        done: bool,
    }
    impl Mechanism for ForceSet {
        fn name(&self) -> &str {
            "force-set"
        }
        fn control(&mut self, core: &mut crate::SimCore) -> ControlAction {
            if !self.done && core.cycle() == self.at {
                self.done = true;
                ControlAction::Forced(self.moves.clone(), ForcedKind::Spin)
            } else {
                ControlAction::Freeze
            }
        }
    }
    let mut sim = Sim::new(
        topo.clone(),
        single_vc_config(),
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(ForceSet { at: 2, moves, done: false }),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );
    let mut pids = Vec::new();
    for &l in &links {
        // Destinations far away so nobody ejects during the rotation.
        pids.push(sim.core_mut().place_packet(
            VcRef { link: l, vn: 0, vc: 0 },
            NodeId(0),
            NodeId(8),
            MessageClass::REQUEST,
            1,
        ));
    }
    sim.run(5);
    assert_eq!(sim.stats().spins, 1);
    for (i, &pid) in pids.iter().enumerate() {
        let p = sim.core().packet(pid);
        assert_eq!(
            p.loc,
            crate::Location::Vc { link: links[(i + 1) % 4], vn: 0, vc: 0 },
            "packet {i} rotated one slot"
        );
    }
}

#[test]
fn trace_traffic_injects_on_schedule() {
    let topo = Topology::mesh(3, 3);
    let events = vec![
        InjectionEvent {
            cycle: 5,
            src: NodeId(0),
            dest: NodeId(8),
            class: MessageClass::REQUEST,
            len_flits: 1,
        },
        InjectionEvent {
            cycle: 10,
            src: NodeId(8),
            dest: NodeId(0),
            class: MessageClass::REQUEST,
            len_flits: 5,
        },
    ];
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            num_classes: 1,
            vns: 1,
            vcs_per_vn: 2,
            ..SimConfig::default()
        },
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(NoMechanism),
        Box::new(TraceTraffic::new(events)),
    );
    sim.run(4);
    assert_eq!(sim.stats().generated, 0);
    sim.run(2);
    assert_eq!(sim.stats().generated, 1);
    let outcome = sim.run(200);
    assert_eq!(outcome, crate::RunOutcome::WorkloadFinished);
    assert_eq!(sim.stats().ejected, 2);
}

#[test]
fn serialization_throttles_long_packets() {
    // With 5-flit packets, a single link sustains at most 1/5 packets per
    // cycle; check accepted throughput respects serialization.
    let topo = Topology::ring(3);
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            num_classes: 1,
            vns: 1,
            vcs_per_vn: 2,
            watchdog_threshold: 0,
            ..SimConfig::default()
        },
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::Neighbor, 1.0, 5, 3)),
    );
    sim.warmup_and_measure(500, 2_000);
    let thpt = sim.stats().throughput(sim.core().cycle(), 3);
    assert!(thpt > 0.05, "some traffic flows: {thpt}");
    assert!(thpt <= 0.21, "serialization caps neighbor traffic: {thpt}");
}

#[test]
fn ejection_queue_capacity_backpressures() {
    // An endpoint that never consumes: the ejection queue fills to its
    // capacity and the network backs up, but nothing is lost.
    struct NoConsume;
    impl crate::traffic::Endpoints for NoConsume {
        fn name(&self) -> &str {
            "no-consume"
        }
        fn pre_cycle(&mut self, _core: &mut crate::SimCore) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let topo = Topology::mesh(3, 3);
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            num_classes: 1,
            vns: 1,
            vcs_per_vn: 2,
            ej_queue_capacity: 2,
            watchdog_threshold: 0,
            ..SimConfig::default()
        },
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(NoMechanism),
        Box::new(NoConsume),
    );
    // Script packets toward one node.
    for i in 0..6u16 {
        let src = NodeId(i);
        sim.core_mut()
            .try_enqueue_packet(src, NodeId(8), MessageClass::REQUEST, 1, 0);
    }
    sim.run(200);
    assert_eq!(
        sim.core().ejection_len(NodeId(8), MessageClass::REQUEST),
        2,
        "queue fills to capacity and holds"
    );
    assert_eq!(sim.stats().ejected, 2);
    let live = sim.core().live_packets();
    assert_eq!(live, 6, "undelivered packets remain live in the network");
}

// ---------------------------------------------------------------------
// Observability: event bus wiring and the flight recorder
// ---------------------------------------------------------------------

/// A saturated 1-VC ring with U-turn-free minimal routing deadlocks fast
/// (same scenario as the detector's own test); with tracing, a flight
/// recorder directory and a progress horizon in no-panic mode, the run
/// must stop with a violation and leave a replayable dump whose final
/// event is the invariant violation carrying the sim seed.
#[test]
fn flight_recorder_dumps_on_invariant_violation() {
    use crate::trace::{TraceConfig, TraceEvent};

    let dir = std::env::temp_dir().join(format!("drain-flightrec-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = Topology::ring(4);
    let config = SimConfig {
        vns: 1,
        vcs_per_vn: 1,
        num_classes: 1,
        watchdog_threshold: 0,
        seed: 0xF11E,
        checks: crate::CheckConfig::full()
            .with_progress_horizon(2_000)
            .no_panic(),
        trace: TraceConfig::events_on().with_flight_recorder(&dir),
        ..SimConfig::default()
    };
    let mut sim = Sim::new(
        topo.clone(),
        config,
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.9, 1, 3)),
    );
    let outcome = sim.run(20_000);
    assert_eq!(outcome, crate::RunOutcome::InvariantViolation);
    let v = sim.violation().expect("violation recorded");
    assert_eq!(v.seed, 0xF11E);
    let path = sim.flight_record().expect("flight record written").to_owned();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let header = lines.next().expect("header line");
    assert!(header.contains("\"flightrec\":\"v1\""));
    assert!(header.contains("\"seed\":61726"), "header: {header}");
    let last = text.lines().last().expect("non-empty dump");
    match TraceEvent::parse_jsonl(last) {
        Ok(TraceEvent::InvariantViolation { seed, kind, .. }) => {
            assert_eq!(seed, 0xF11E);
            assert_eq!(kind, v.kind);
        }
        other => panic!("final dump line should be the violation, got {other:?} from {last}"),
    }
    // Every event line in the dump must parse (snapshot/header lines are
    // the only non-event lines and carry their own discriminators).
    for line in text.lines().skip(1) {
        if line.starts_with("{\"snapshot\"") {
            continue;
        }
        TraceEvent::parse_jsonl(line).unwrap_or_else(|e| panic!("bad dump line {line}: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The watchdog trip emits a trace event and dumps exactly one flight
/// record per run.
#[test]
fn watchdog_trip_emits_event_and_dump() {
    use crate::trace::{TraceConfig, TraceEvent, TraceSink};

    let dir = std::env::temp_dir().join(format!("drain-watchdog-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = Topology::ring(4);
    let config = SimConfig {
        watchdog_threshold: 500,
        trace: TraceConfig::events_on().with_flight_recorder(&dir),
        ..single_vc_config()
    };
    let mut sim = Sim::new(
        topo.clone(),
        config,
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.9, 1, 3)),
    );
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    sim.run(5_000);
    assert!(sim.stats().watchdog_deadlock, "saturated 1-VC ring wedges");
    let events = sim.core_mut().tracer_mut().take_memory().unwrap();
    let trips: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::WatchdogTrip { .. }))
        .collect();
    assert_eq!(trips.len(), 1, "watchdog trip recorded once");
    assert!(sim.flight_record().is_some());
    let dumps = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(dumps, 1, "one dump per run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hot-path emission: a tiny traced run produces matched inject/eject
/// pairs plus VC-alloc and link-traverse events consistent with stats.
#[test]
fn traced_run_matches_stats() {
    use crate::trace::{TraceEvent, TraceSink};

    let topo = Topology::mesh(2, 2);
    let mut sim = quiet_sim(&topo, single_vc_config());
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    for i in 0..3u16 {
        sim.core_mut()
            .try_enqueue_packet(NodeId(i), NodeId(3 - i % 2), MessageClass::REQUEST, 1, 0);
    }
    sim.run(100);
    let stats_ejected = sim.stats().ejected;
    let stats_hops = sim.stats().hops;
    assert!(stats_ejected > 0);
    let events = sim.core_mut().tracer_mut().take_memory().unwrap();
    let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    assert_eq!(count(|e| matches!(e, TraceEvent::Inject { .. })), sim.stats().injected);
    assert_eq!(count(|e| matches!(e, TraceEvent::Eject { .. })), stats_ejected);
    assert_eq!(count(|e| matches!(e, TraceEvent::LinkTraverse { .. })), stats_hops);
    assert_eq!(count(|e| matches!(e, TraceEvent::VcAlloc { .. })), stats_hops);
}

/// Telemetry sampling: cadence, occupancy accounting and sample bounding
/// on a live simulation.
#[test]
fn telemetry_samples_on_cadence() {
    use crate::trace::TraceConfig;

    let topo = Topology::mesh(4, 4);
    let config = SimConfig {
        trace: TraceConfig::default().with_telemetry(64),
        ..single_vc_config()
    };
    let mut sim = Sim::new(
        topo.clone(),
        config,
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.1, 1, 11)),
    );
    sim.run(640);
    let samples: Vec<_> = sim.core().telemetry().samples().cloned().collect();
    assert_eq!(samples.len(), 10, "one sample per 64-cycle window");
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.cycle, 64 * (i as u64 + 1) - 1, "samples on window boundaries");
        assert_eq!(s.routers.len(), 16);
        assert_eq!(s.link_flits.len(), topo.num_unidirectional_links());
    }
    let total_flits: u64 = samples.iter().map(|s| s.total_flits()).sum();
    assert!(total_flits > 0, "uniform traffic moves flits");
    assert!(total_flits <= sim.stats().flit_hops);
}

#[test]
#[should_panic(expected = "was built for another topology")]
fn routing_built_for_another_faulty_mesh_is_refused() {
    use drain_topology::faults::FaultInjector;
    // Two faulty meshes with equal router and link counts: only the link
    // fingerprint tells them apart, and the core must not silently adopt
    // a distance map whose link ids name other links.
    let mesh = Topology::mesh(4, 4);
    let simulated = FaultInjector::new(1).remove_links(&mesh, 3).unwrap();
    let other = FaultInjector::new(2).remove_links(&mesh, 3).unwrap();
    assert_eq!(simulated.num_nodes(), other.num_nodes());
    assert_eq!(
        simulated.num_unidirectional_links(),
        other.num_unidirectional_links()
    );
    assert_ne!(simulated.edge_list(), other.edge_list());
    Sim::new(
        simulated,
        single_vc_config(),
        Box::new(FullyAdaptive::new(&other)),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );
}
