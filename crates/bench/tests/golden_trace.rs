//! Golden-trace regression tests: the observability event stream of a
//! deterministic run must be byte-identical across repeated runs and
//! across worker-thread counts (the sweep engine promises bit-identical
//! results no matter the parallelism), with the trace stream as the
//! strictest witness of those promises.

use drain_bench::cache::ResultCache;
use drain_bench::engine::SweepEngine;
use drain_bench::scheme::DrainVariant;
use drain_bench::{Scale, Scheme};
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{TraceConfig, TraceSink};
use drain_topology::Topology;

/// One deterministic traced run: a 2×2 mesh under DRAIN with a short
/// epoch (so drain-epoch events appear), serialized to JSONL bytes.
fn traced_jsonl(seed: u64) -> String {
    let topo = Topology::mesh(2, 2);
    let mut sim = Scheme::Drain(DrainVariant::Vn1Vc2).synthetic_sim_traced(
        &topo,
        true,
        SyntheticPattern::UniformRandom,
        0.10,
        seed,
        256,
        1,
        TraceConfig::events_on(),
    );
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    sim.run(4_096);
    let events = sim
        .core_mut()
        .tracer_mut()
        .take_memory()
        .expect("memory sink installed");
    assert!(!events.is_empty(), "a traced run must emit events");
    let mut out = String::new();
    for e in &events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    out
}

#[test]
fn golden_trace_is_identical_across_runs() {
    let a = traced_jsonl(7);
    let b = traced_jsonl(7);
    assert_eq!(a, b, "same seed must produce a byte-identical trace");
    assert!(
        a.contains("\"ev\":\"drain-epoch-start\""),
        "short-epoch run must trace drain windows"
    );
    let c = traced_jsonl(8);
    assert_ne!(a, c, "different seeds must diverge");
}

#[test]
fn golden_trace_is_worker_thread_invariant() {
    let jobs: Vec<u64> = vec![3, 4, 5];
    let run = |threads: usize| -> Vec<String> {
        let mut engine =
            SweepEngine::with("goldentrace", Scale::Quick, threads, ResultCache::disabled());
        engine.run_jobs(&jobs, |&seed| traced_jsonl(seed), |_, _| 4_096)
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "trace bytes must not depend on the worker-thread count"
    );
}
