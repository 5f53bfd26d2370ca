//! Interleaved keyed-vs-stream timing of the per-cycle kernel.
//!
//! The `sim_kernel` criterion groups time each (preset, scheme, mode)
//! point in its own measurement window. On a shared container whose
//! throughput drifts tens of percent between windows, a cross-window
//! ratio can be pure fiction (EXPERIMENTS.md "Kernel performance"
//! documents a phantom 1.67× between two identical runs). This harness
//! alternates the two RNG determinism contracts within one process —
//! stream, keyed, stream, keyed, … — and reports the best-of-N wall
//! time per mode, so both legs sample the same machine conditions and
//! the floor estimates are comparable.
//!
//! Usage:
//!   kernel_time [--preset saturated|congested|mesh16|all] [--reps N]
//!
//! Presets mirror `crates/bench/benches/sim_kernel.rs` exactly:
//! `saturated` is the dense mesh(8,8) point (40% uniform-random,
//! 5 000 cycles), `congested` the irregular faulty mesh(12,12) point
//! (24 seeded link faults, 25%, 2 000 cycles), `mesh16` a saturated
//! mesh(16,16) point (40%, 1 500 cycles; `all` covers the first two).
//! One JSON line per (preset, scheme) goes to stdout; pipe it wherever.

use std::time::Instant;

use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{RngMode, Sim};
use drain_topology::faults::FaultInjector;
use drain_topology::Topology;

struct Preset {
    name: &'static str,
    topo: Topology,
    eject: bool,
    rate: f64,
    seed: u64,
    epoch: u64,
    cycles: u64,
}

fn presets(which: &str) -> Vec<Preset> {
    let saturated = Preset {
        name: "saturated",
        topo: Topology::mesh(8, 8),
        eject: true,
        rate: 0.40,
        seed: 1,
        epoch: Scheme::DEFAULT_EPOCH,
        cycles: 5_000,
    };
    let congested = Preset {
        name: "congested",
        topo: FaultInjector::new(9)
            .remove_links(&Topology::mesh(12, 12), 24)
            .expect("mesh(12,12) tolerates 24 removals"),
        eject: false,
        rate: 0.25,
        seed: 11,
        epoch: 512,
        cycles: 2_000,
    };
    let mesh16 = Preset {
        name: "mesh16",
        topo: Topology::mesh(16, 16),
        eject: true,
        rate: 0.40,
        seed: 1,
        epoch: Scheme::DEFAULT_EPOCH,
        cycles: 1_500,
    };
    match which {
        "saturated" => vec![saturated],
        "congested" => vec![congested],
        "mesh16" => vec![mesh16],
        "all" => vec![saturated, congested],
        other => panic!("unknown preset {other:?} (want saturated|congested|mesh16|all)"),
    }
}

/// One timed `Sim::run` under `mode`; construction is excluded, like
/// the criterion bench. Returns (elapsed ns, delivered packets).
fn run_once(p: &Preset, scheme: Scheme, mode: RngMode) -> (u128, u64) {
    let mut sim: Sim = scheme.synthetic_sim(
        &p.topo,
        p.eject,
        SyntheticPattern::UniformRandom,
        p.rate,
        p.seed,
        p.epoch,
    );
    sim.set_rng_mode(mode);
    let t = Instant::now();
    sim.run(p.cycles);
    (t.elapsed().as_nanos(), sim.stats().ejected)
}

fn main() {
    let mut preset = "all".to_string();
    let mut reps = 7usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--preset" => preset = args.next().expect("--preset needs a value"),
            "--reps" => {
                reps = args
                    .next()
                    .expect("--reps needs a value")
                    .parse()
                    .expect("--reps needs an integer")
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    for p in presets(&preset) {
        for scheme in Scheme::headline() {
            let mut best = [u128::MAX; 2];
            let mut delivered = [0u64; 2];
            // One untimed warm-up pair, then `reps` interleaved pairs.
            for warm in [true, false] {
                let n = if warm { 1 } else { reps };
                for _ in 0..n {
                    for (i, mode) in [RngMode::Stream, RngMode::Keyed].into_iter().enumerate() {
                        let (ns, ejected) = run_once(&p, scheme, mode);
                        if !warm {
                            best[i] = best[i].min(ns);
                            delivered[i] = ejected;
                        }
                    }
                }
            }
            assert!(
                delivered.iter().all(|&d| d > 0),
                "timed run delivered nothing"
            );
            let npc = |ns: u128| ns as f64 / p.cycles as f64;
            println!(
                "{{\"preset\":\"{}\",\"scheme\":\"{}\",\"reps\":{},\
                 \"stream_best_ns_per_cycle\":{:.1},\
                 \"keyed_best_ns_per_cycle\":{:.1},\
                 \"keyed_speedup\":{:.3}}}",
                p.name,
                scheme.label(),
                reps,
                npc(best[0]),
                npc(best[1]),
                npc(best[0]) / npc(best[1]),
            );
        }
    }
}
