//! Cross-refactor golden pins for the simulator kernel.
//!
//! Unlike `golden_trace.rs` (which proves *self*-consistency: identical
//! bytes across reruns and worker-thread counts), these tests pin the
//! kernel's observable behaviour to constants captured from a known-good
//! build. Any data-layout or allocation-order rework that silently drifts
//! the RNG draw schedule, the allocation order, or the trace stream fails
//! here even though it would still be self-consistent.
//!
//! The pinned digests were captured on the occupancy-driven kernel (PR 5)
//! and must survive the struct-of-arrays arena refactor (PR 6) unchanged:
//! same seeds, same cycles, same bytes.
//!
//! Two pin families exist, one per RNG determinism contract (see
//! `drain_netsim::rng`): the `PINNED_*` constants are the original
//! serial-draw-stream family; the `KEYED_*` constants pin the keyed
//! counter-based mixer, which produces a different (equally valid)
//! random sequence and therefore different digests. Every helper here
//! sets its mode explicitly, so neither family is perturbed by the
//! `DRAIN_RNG` environment knob.
//!
//! If a *deliberate* behaviour change invalidates them, re-capture with
//! `cargo test -p drain-bench --test golden_pin -- --nocapture` (each test
//! prints the digests it observed) and explain the re-pin in the PR.

use drain_bench::scheme::DrainVariant;
use drain_bench::Scheme;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{RngMode, TraceConfig, TraceSink};
use drain_topology::Topology;

/// FNV-1a, dependency-free (the workspace builds offline).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// The three headline schemes with stable directory-safe ids.
fn headline() -> [(&'static str, Scheme); 3] {
    [
        ("escapevc", Scheme::EscapeVc),
        ("spin", Scheme::Spin),
        ("drain", Scheme::Drain(DrainVariant::Vn1Vc2)),
    ]
}

/// Digest of a saturated traced run: mesh(4,4), 40% uniform-random
/// injection (far past saturation, the bench's `saturated` preset rate),
/// a short drain epoch so forced movement appears in-window, 2 000 cycles
/// of JSONL event bytes.
fn saturated_trace_digest(scheme: Scheme, mode: RngMode) -> u64 {
    let topo = Topology::mesh(4, 4);
    let mut sim = scheme.synthetic_sim_traced(
        &topo,
        true,
        SyntheticPattern::UniformRandom,
        0.40,
        17,
        512,
        1,
        TraceConfig::events_on(),
    );
    sim.set_rng_mode(mode);
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    sim.run(2_000);
    let events = sim
        .core_mut()
        .tracer_mut()
        .take_memory()
        .expect("memory sink installed");
    assert!(
        !events.is_empty(),
        "a saturated traced run must emit events"
    );
    let mut out = String::new();
    for e in &events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    fnv1a(out.as_bytes())
}

/// Digest of a saturated untraced run's full statistics: mesh(8,8) (the
/// bench topology), 40% injection, 2 000 cycles, `Stats` debug-formatted
/// (every counter plus both full latency histograms).
fn saturated_stats_digest(scheme: Scheme, mode: RngMode) -> u64 {
    saturated_stats_digest_cfg(scheme, mode, true, true)
}

/// [`saturated_stats_digest`] with the wake scheduler and fast-forward
/// axes exposed — the keyed pin family is held across the full
/// wake × fast-forward matrix.
fn saturated_stats_digest_cfg(
    scheme: Scheme,
    mode: RngMode,
    wake: bool,
    fast_forward: bool,
) -> u64 {
    let topo = Topology::mesh(8, 8);
    let mut sim = scheme.synthetic_sim(
        &topo,
        true,
        SyntheticPattern::UniformRandom,
        0.40,
        17,
        Scheme::DEFAULT_EPOCH,
    );
    sim.set_rng_mode(mode);
    sim.set_wake_scheduler(wake);
    sim.set_fast_forward(fast_forward);
    sim.run(2_000);
    assert!(
        sim.stats().ejected > 0,
        "saturated run must deliver packets"
    );
    fnv1a(format!("{:?}", sim.stats()).as_bytes())
}

/// Expected per-scheme digests, captured pre-refactor (see module docs).
const PINNED_TRACE: [(&str, u64); 3] = [
    ("escapevc", 0x8ec1_d206_79fd_17a4),
    ("spin", 0x3662_c02a_c36d_e52f),
    ("drain", 0x3acb_7a6e_5720_bc45),
];

const PINNED_STATS: [(&str, u64); 3] = [
    ("escapevc", 0xe401_d053_4cb9_3be6),
    ("spin", 0x3937_bbf6_d045_8451),
    ("drain", 0x8ce1_dc7a_8e37_0223),
];

#[test]
fn saturated_golden_trace_is_pinned() {
    let got: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_trace_digest(scheme, RngMode::Stream)))
        .collect();
    for (id, d) in &got {
        println!("trace {id}: {d:#018x}");
    }
    assert_eq!(
        got, PINNED_TRACE,
        "saturated trace bytes drifted from the pinned digests"
    );
}

#[test]
fn saturated_stats_are_pinned() {
    let got: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_stats_digest(scheme, RngMode::Stream)))
        .collect();
    for (id, d) in &got {
        println!("stats {id}: {d:#018x}");
    }
    assert_eq!(
        got, PINNED_STATS,
        "saturated stats drifted from the pinned digests"
    );
}

/// Expected per-scheme digests for the keyed counter-based RNG
/// (`RngMode::Keyed`), captured on the serial kernel at its introduction.
/// A different sequence than the stream family by design; pinned so the
/// keyed mixer and its draw-site keys can never drift silently.
const KEYED_TRACE: [(&str, u64); 3] = [
    ("escapevc", 0xce49_ab86_21d3_29ed),
    ("spin", 0x5e02_858b_8c95_b6b9),
    ("drain", 0x0737_66c1_e779_2f5c),
];

const KEYED_STATS: [(&str, u64); 3] = [
    ("escapevc", 0xcf86_eb2f_2f37_335f),
    ("spin", 0x14b4_d9c7_ac8a_89dc),
    ("drain", 0x3784_8be9_cc04_e6fe),
];

#[test]
fn keyed_saturated_golden_trace_is_pinned() {
    let got: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_trace_digest(scheme, RngMode::Keyed)))
        .collect();
    for (id, d) in &got {
        println!("keyed trace {id}: {d:#018x}");
    }
    assert_eq!(
        got, KEYED_TRACE,
        "keyed-mode trace bytes drifted from the pinned digests"
    );
}

#[test]
fn keyed_saturated_stats_are_pinned() {
    let got: Vec<(&str, u64)> = headline()
        .into_iter()
        .map(|(id, scheme)| (id, saturated_stats_digest(scheme, RngMode::Keyed)))
        .collect();
    for (id, d) in &got {
        println!("keyed stats {id}: {d:#018x}");
    }
    assert_eq!(
        got, KEYED_STATS,
        "keyed-mode stats drifted from the pinned digests"
    );
}

/// The keyed stats pin must hold across the full determinism matrix:
/// wake scheduler on/off × fast-forward on/off. Keyed draws depend only on the key, never on visit order or
/// which cycles were actually swept, so every cell hashes identically.
/// Run on the drain scheme (the only one exercising all mechanism
/// paths); the per-scheme serial pins above cover the other schemes.
#[test]
fn keyed_stats_pins_hold_across_wake_and_fast_forward() {
    let pinned = KEYED_STATS[2].1;
    for wake in [true, false] {
        for ff in [true, false] {
            let d = saturated_stats_digest_cfg(
                Scheme::Drain(DrainVariant::Vn1Vc2),
                RngMode::Keyed,
                wake,
                ff,
            );
            println!("keyed stats wake={wake} ff={ff}: {d:#018x}");
            assert_eq!(d, pinned, "keyed stats diverged at wake={wake} ff={ff}");
        }
    }
}
