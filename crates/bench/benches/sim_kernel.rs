//! Raw simulator speed of the per-cycle kernel (an engineering metric,
//! not a paper figure).
//!
//! Two presets bracket the sweep grids every paper figure is built from:
//!
//! * `low` — 0.5% uniform-random injection, the bottom of the Fig 10/11
//!   rate grids, where almost every VC buffer is empty and the
//!   occupancy-driven kernel (active-VC index) earns its keep;
//! * `saturated` — 40% injection, far past saturation, where nearly every
//!   buffer is occupied and the kernel must not regress against a plain
//!   dense sweep.
//!
//! Simulation construction (drain-path/routing-table precompute) happens
//! in the batch setup and is *not* measured — samples time `Sim::run`
//! only. `scripts/bench_kernel.sh` turns the criterion estimates into
//! `BENCH_kernel.json`; keep the preset names, rates, and cycle counts in
//! sync with that script.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::RngMode;
use drain_topology::faults::FaultInjector;
use drain_topology::Topology;

/// Directory-safe scheme ids (criterion mangles `label()`'s punctuation).
fn scheme_id(s: Scheme) -> &'static str {
    match s {
        Scheme::EscapeVc => "escapevc",
        Scheme::Spin => "spin",
        _ => "drain",
    }
}

fn bench(c: &mut Criterion) {
    let topo = Topology::mesh(8, 8);
    let mut g = c.benchmark_group("sim_kernel");
    g.sample_size(10);
    // `saturated_keyed` is the tentpole comparison: same point as
    // `saturated` under the keyed counter-based RNG (`RngMode::Keyed`),
    // where parked heads draw nothing and the draw stream needs no
    // serial bookkeeping.
    for (preset, rate, cycles, mode) in [
        ("low", 0.005, 20_000u64, RngMode::Stream),
        ("saturated", 0.40, 5_000, RngMode::Stream),
        ("saturated_keyed", 0.40, 5_000, RngMode::Keyed),
    ] {
        g.throughput(Throughput::Elements(cycles));
        for scheme in Scheme::headline() {
            g.bench_with_input(
                BenchmarkId::new(preset, scheme_id(scheme)),
                &scheme,
                |b, &s| {
                    b.iter_batched(
                        || {
                            let mut sim = s.synthetic_sim(
                                &topo,
                                true,
                                SyntheticPattern::UniformRandom,
                                rate,
                                1,
                                Scheme::DEFAULT_EPOCH,
                            );
                            sim.set_rng_mode(mode);
                            sim
                        },
                        |mut sim| {
                            sim.run(cycles);
                            sim.stats().ejected
                        },
                        BatchSize::PerIteration,
                    );
                },
            );
        }
    }
    g.finish();
}

/// Congested irregular network — the regime the wake-driven Phase A
/// scheduler targets: a faulty mesh(12,12) (24 random links removed)
/// past its (much lower) saturation point, where blocked episodes span
/// many cycles and parked heads skip real routing work. On the healthy
/// mesh(8,8) `saturated` preset above blocked episodes last 1–2 cycles
/// and the scheduler only breaks even; this preset is where it pays.
fn bench_irregular(c: &mut Criterion) {
    let topo = FaultInjector::new(9)
        .remove_links(&Topology::mesh(12, 12), 24)
        .expect("mesh(12,12) tolerates 24 removals");
    let cycles = 2_000u64;
    let mut g = c.benchmark_group("sim_kernel_irregular");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cycles));
    // `congested_keyed`: the same congested point under the keyed RNG —
    // the regime where parked heads skipping their draws compounds with
    // skipping their routing work.
    for (preset, mode) in [
        ("congested", RngMode::Stream),
        ("congested_keyed", RngMode::Keyed),
    ] {
        for scheme in Scheme::headline() {
            g.bench_with_input(
                BenchmarkId::new(preset, scheme_id(scheme)),
                &scheme,
                |b, &s| {
                    b.iter_batched(
                        || {
                            let mut sim = s.synthetic_sim(
                                &topo,
                                false,
                                SyntheticPattern::UniformRandom,
                                0.25,
                                11,
                                512,
                            );
                            sim.set_rng_mode(mode);
                            sim
                        },
                        |mut sim| {
                            sim.run(cycles);
                            sim.stats().ejected
                        },
                        BatchSize::PerIteration,
                    );
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench, bench_irregular);
criterion_main!(benches);
