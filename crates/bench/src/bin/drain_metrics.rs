//! `drain-metrics`: metrics-registry / phase-profiler smoke harness and
//! exposition demo.
//!
//! Two phases, both exercising the unified `drain_` metrics namespace:
//!
//! 1. **Streaming**: one simulation runs with telemetry sampling and the
//!    kernel phase profiler enabled; every `--snapshot-period` cycles a
//!    registry snapshot is appended (as a `{"kind":"metrics",...}` line)
//!    to `<out>/stream.jsonl`, merged in cycle order with the telemetry
//!    samples (`{"kind":"telemetry",...}`) taken in the same window. With
//!    `--listen ADDR` the latest snapshot is also served over HTTP in
//!    Prometheus text format (see [`drain_bench::serve`]).
//! 2. **Sweep**: a small multi-point sweep runs through the
//!    [`SweepEngine`]; every per-point snapshot plus the engine's own
//!    `drain_sweep_*` job metrics merge into one registry written to
//!    `<out>/drain_metrics.prom`, which is immediately re-parsed and
//!    round-tripped (`encode(parse(encode)) == encode` — any mismatch is
//!    fatal). The merged phase-profile attribution prints as a table and
//!    its shares must sum to ~100%.
//!
//! Everything asserted here is also covered by unit/integration tests;
//! this binary is the end-to-end smoke run wired into `scripts/check.sh`.
//!
//! ```text
//! drain_metrics [--mesh WxH] [--rate R] [--cycles N] [--points K]
//!               [--profile-period P] [--telemetry-period T]
//!               [--snapshot-period S] [--seed S]
//!               [--listen ADDR] [--out DIR]
//! ```

use std::path::PathBuf;

use drain_bench::engine::SweepEngine;
use drain_bench::json::{num, Json};
use drain_bench::report::results_dir;
use drain_bench::scheme::DrainVariant;
use drain_bench::serve::MetricsServer;
use drain_bench::table::{banner, print_table};
use drain_bench::{Scale, Scheme};
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::{MetricsSnapshot, Phase, TelemetrySample, TraceConfig};
use drain_topology::Topology;

struct Args {
    mesh: (u16, u16),
    rate: f64,
    cycles: u64,
    points: u64,
    profile_period: u64,
    telemetry_period: u64,
    snapshot_period: u64,
    seed: u64,
    listen: Option<String>,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        mesh: (8, 8),
        rate: 0.10,
        cycles: 16_384,
        points: 4,
        profile_period: 64,
        telemetry_period: 256,
        snapshot_period: 4_096,
        seed: 1,
        listen: None,
        out: results_dir().join("metrics"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--mesh" => {
                let v = val("--mesh");
                let (w, h) = v.split_once('x').expect("--mesh WxH");
                args.mesh = (w.parse().expect("--mesh"), h.parse().expect("--mesh"));
            }
            "--rate" => args.rate = val("--rate").parse().expect("--rate"),
            "--cycles" => args.cycles = val("--cycles").parse().expect("--cycles"),
            "--points" => args.points = val("--points").parse().expect("--points"),
            "--profile-period" => {
                args.profile_period = val("--profile-period").parse().expect("--profile-period")
            }
            "--telemetry-period" => {
                args.telemetry_period =
                    val("--telemetry-period").parse().expect("--telemetry-period")
            }
            "--snapshot-period" => {
                args.snapshot_period = val("--snapshot-period").parse().expect("--snapshot-period")
            }
            "--seed" => args.seed = val("--seed").parse().expect("--seed"),
            "--listen" => args.listen = Some(val("--listen")),
            "--out" => args.out = PathBuf::from(val("--out")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn telemetry_line(s: &TelemetrySample, period: u64) -> String {
    let nums = |it: &mut dyn Iterator<Item = f64>| Json::Arr(it.map(num).collect());
    Json::obj([
        ("kind", Json::Str("telemetry".into())),
        ("cycle", num(s.cycle as f64)),
        ("window", num(s.window as f64)),
        ("total_flits", num(s.total_flits() as f64)),
        (
            "occupied_vcs",
            nums(&mut s.routers.iter().map(|r| r.occupied_vcs as f64)),
        ),
        (
            "credit_stalls",
            nums(&mut s.routers.iter().map(|r| r.credit_stalls as f64)),
        ),
        (
            "link_util",
            nums(&mut s.link_utilization(period).into_iter()),
        ),
    ])
    .to_string()
}

/// Phase 1: one streaming simulation emitting merged JSONL + HTTP body.
fn streaming_phase(args: &Args, topo: &Topology, server: Option<&MetricsServer>) -> MetricsSnapshot {
    let trace_cfg = TraceConfig::default().with_telemetry(args.telemetry_period);
    let mut sim = Scheme::Drain(DrainVariant::Vn1Vc2).synthetic_sim_traced(
        topo,
        false,
        SyntheticPattern::UniformRandom,
        args.rate,
        args.seed,
        1_024,
        1,
        trace_cfg,
    );
    sim.set_profile_period(args.profile_period);

    let mut stream = String::new();
    let mut next = 0;
    while next < args.cycles {
        let slice = args.snapshot_period.min(args.cycles - next);
        sim.run(slice);
        next += slice;
        // Telemetry samples taken during this slice all carry stamps at
        // or before the slice boundary, so draining them first keeps the
        // merged stream in cycle order.
        for s in sim.core_mut().telemetry_mut().take_samples() {
            stream.push_str(&telemetry_line(&s, args.telemetry_period));
            stream.push('\n');
        }
        let snap = sim.metrics_snapshot();
        stream.push_str(&snap.to_jsonl(sim.core().cycle()));
        stream.push('\n');
        if let Some(server) = server {
            server.set_body(snap.to_prometheus());
        }
    }

    let stream_path = args.out.join("stream.jsonl");
    std::fs::write(&stream_path, &stream).expect("write stream.jsonl");
    // Re-parse the merged stream; a malformed line is a bug.
    let mut metrics_lines = 0u64;
    let mut telemetry_lines = 0u64;
    for (i, line) in stream.lines().enumerate() {
        let v = drain_bench::json::parse(line)
            .unwrap_or_else(|e| panic!("stream line {} does not parse: {e}", i + 1));
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("metrics") => metrics_lines += 1,
            Some("telemetry") => telemetry_lines += 1,
            other => panic!("stream line {} has unexpected kind {other:?}", i + 1),
        }
    }
    assert!(metrics_lines > 0, "streaming phase must emit metrics lines");
    println!(
        "stream: {metrics_lines} metrics + {telemetry_lines} telemetry lines -> {}",
        stream_path.display()
    );

    sim.metrics_snapshot()
}

/// Phase 2: a small sweep; returns the merged registry across all points
/// plus the engine's own job metrics.
fn sweep_phase(args: &Args, topo: &Topology, scale: Scale) -> MetricsSnapshot {
    let seeds: Vec<u64> = (0..args.points).map(|i| args.seed + i).collect();
    let mut engine = SweepEngine::new("drain_metrics", scale);
    let snapshots = engine.run_jobs(
        &seeds,
        |&seed| {
            let mut sim = Scheme::Drain(DrainVariant::Vn1Vc2).synthetic_sim(
                topo,
                false,
                SyntheticPattern::UniformRandom,
                args.rate,
                seed,
                1_024,
            );
            sim.set_profile_period(args.profile_period);
            sim.run(args.cycles);
            sim.metrics_snapshot()
        },
        |_, _| args.cycles,
    );
    let mut merged = MetricsSnapshot::new();
    for snap in &snapshots {
        merged.merge(snap);
    }
    merged.merge(&engine.metrics_snapshot());
    engine.finish();
    merged
}

/// Prints the merged phase attribution and asserts shares sum to ~100%.
fn phase_table(merged: &MetricsSnapshot) {
    let cycle_nanos = merged
        .counter_value("drain_profile_cycle_nanos_total")
        .expect("profiler was enabled, cycle nanos must be present");
    let sampled = merged
        .counter_value("drain_profile_sampled_cycles_total")
        .unwrap_or(0);
    assert!(sampled > 0, "profiler sampled no cycles");
    let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    names.push("other");
    let mut rows = Vec::new();
    let mut share_sum = 0.0;
    for name in names {
        let nanos = merged
            .counter_value_labeled("drain_profile_phase_nanos_total", &[("phase", name)])
            .unwrap_or(0);
        let share = 100.0 * nanos as f64 / cycle_nanos as f64;
        share_sum += share;
        rows.push(vec![
            name.to_string(),
            nanos.to_string(),
            format!("{share:.1}%"),
        ]);
    }
    rows.push(vec![
        "total".to_string(),
        cycle_nanos.to_string(),
        format!("{share_sum:.1}%"),
    ]);
    print_table(
        "kernel phase attribution (merged over all points)",
        &["phase", "nanos", "share"],
        &rows,
    );
    // `other` is cycle - sum(phases) by construction, but saturating
    // (clock jitter can make a phase overshoot its cycle); allow slack.
    assert!(
        (share_sum - 100.0).abs() < 2.0,
        "phase shares must sum to ~100%, got {share_sum:.2}%"
    );
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();
    banner(
        "metrics",
        "unified metrics registry + phase profiler smoke",
        scale,
    );
    assert!(args.profile_period > 0, "--profile-period must be > 0 here");
    assert!(args.snapshot_period > 0, "--snapshot-period must be > 0");
    std::fs::create_dir_all(&args.out).expect("create metrics output dir");

    let topo = Topology::mesh(args.mesh.0, args.mesh.1);
    let server = args.listen.as_deref().map(|addr| {
        let s = MetricsServer::serve(addr).expect("bind metrics listener");
        println!("serving metrics on http://{}/metrics", s.local_addr());
        s
    });

    let stream_snap = streaming_phase(&args, &topo, server.as_ref());
    let mut merged = sweep_phase(&args, &topo, scale);
    merged.merge(&stream_snap);

    // Exposition + round-trip: the .prom file must parse back to a
    // registry that re-encodes byte-identically.
    let prom = merged.to_prometheus();
    let prom_path = args.out.join("drain_metrics.prom");
    std::fs::write(&prom_path, &prom).expect("write .prom file");
    let reparsed = MetricsSnapshot::parse_prometheus(&prom)
        .unwrap_or_else(|e| panic!("exposition does not parse: {e}"));
    assert_eq!(
        reparsed.to_prometheus(),
        prom,
        "Prometheus exposition must round-trip byte-identically"
    );
    println!(
        "exposition: {} families, {} bytes -> {} (round-trip OK)",
        merged.families().len(),
        prom.len(),
        prom_path.display()
    );

    phase_table(&merged);

    if let Some(server) = &server {
        server.set_body(prom);
    }
    drop(server);
    println!("drain_metrics: OK");
}
