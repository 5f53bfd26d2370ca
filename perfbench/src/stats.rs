//! Folding grid runs into the reported metrics, the checks and counters
//! printout, the span file, and the JSON result line.

use std::fmt::Write as _;

use drain_bench::cache::fnv1a64;

use crate::measure::{ExtraCalls, Record, COUNTERS, DISTANCE_CALLS_PER_SIM, PHASES};

/// One cold run of the whole grid.
pub struct Rep {
    /// Wall time of the grid on the engine.
    pub wall_s: f64,
    /// Summed job wall time across workers (`SweepEngine::report`).
    pub busy_s: f64,
    /// Summed queue wait across jobs (`SweepEngine::report`).
    pub queue_wait_s: f64,
    /// Busy fraction of the worker pool (`SweepEngine::report`).
    pub utilization: f64,
    /// One record per grid point, in grid order.
    pub records: Vec<Record>,
}

fn sum_s(records: &[Record], ns: impl Fn(&Record) -> f64) -> f64 {
    records.iter().map(ns).sum::<f64>() * 1e-9
}

impl Rep {
    /// Host time summed over points from point spec to a runnable `Sim`.
    pub fn setup_s(&self) -> f64 {
        sum_s(&self.records, |r| r.setup_ns() as f64)
    }

    /// Host time summed inside `Sim::warmup_and_measure` / `Sim::run`.
    pub fn run_s(&self) -> f64 {
        sum_s(&self.records, |r| r.run_ns as f64)
    }

    /// Host time of the traced runs' extra layer calls.
    pub fn extra_s(&self) -> f64 {
        sum_s(&self.records, |r| {
            r.extra.map_or(0, |e| e.total_ns()) as f64
        })
    }

    /// Per-point host time (setup + run) in milliseconds.
    pub fn point_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| (r.setup_ns() + r.run_ns) as f64 * 1e-6)
            .collect()
    }

    /// Failed points.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.failure.is_some()).count()
    }

    /// Digest over every point's result, in grid order.
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .records
            .iter()
            .flat_map(|r| r.outcome.map_or(0, |o| o.digest()).to_le_bytes())
            .collect();
        fnv1a64(&bytes)
    }

    /// Work counters summed over points (`None` = family absent).
    pub fn counter_sums(&self) -> Vec<Option<u64>> {
        (0..COUNTERS.len())
            .map(|i| {
                self.records
                    .iter()
                    .map(|r| r.counters.get(i).copied().flatten())
                    .try_fold(0u64, |acc, v| Some(acc + v?))
            })
            .collect()
    }

    fn count(&self, f: impl Fn(&Record) -> u64) -> u64 {
        self.records.iter().map(f).sum()
    }
}

/// The median (mean of the middle two for even counts).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile of `n` samples with at least ten samples
/// beyond it (100 when there are ten or fewer).
pub fn tail_percentile(n: usize) -> u32 {
    if n <= 10 {
        100
    } else {
        (100 * (n - 10) / n) as u32
    }
}

/// The nearest-rank `pct`-th percentile.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct as usize * v.len()).div_ceil(100).max(1);
    v.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// One named metric with its unit.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Peak resident memory of this process (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// End-to-end metrics: medians over the untraced grid runs. The per-point
/// times pool every run; the tail percentile is the highest with ten
/// samples beyond it among the `min_runs` runs every measurement has, so
/// it is the same on every run of a workload.
pub fn end_to_end(plain: &[Rep], min_runs: usize) -> Vec<Metric> {
    let points: Vec<f64> = plain.iter().flat_map(Rep::point_ms).collect();
    let grid = plain[0].records.len();
    let pct = tail_percentile(min_runs * grid);
    println!(
        "point times: n={} ({} grid runs x {grid} points), median and p{pct}",
        points.len(),
        plain.len()
    );
    vec![
        metric("wall_s", median(plain.iter().map(|r| r.wall_s)), "s"),
        metric("setup_s", median(plain.iter().map(Rep::setup_s)), "s"),
        metric(
            "flit_hops_per_s",
            median(
                plain
                    .iter()
                    .map(|r| r.count(|x| x.counters[0].unwrap_or(0)) as f64 / r.run_s()),
            ),
            "1/s",
        ),
        metric("point_ms_p50", median(points.iter().copied()), "ms"),
        metric("point_ms_tail", percentile(&points, pct), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics: engine figures from the untraced runs, layer times
/// from the traced runs (medians), work counts from the first run.
pub fn per_layer(plain: &[Rep], traced: &[Rep], threads: usize) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(traced.iter().map(f));
    let t = &traced[0];
    let wall_plain = median(plain.iter().map(|r| r.wall_s));
    let wall_traced = med(&|r| r.wall_s);
    let extra_s = med(&|r| r.extra_s());
    let overhead = wall_traced - wall_plain - extra_s / threads as f64;
    println!(
        "tracing overhead: traced wall {wall_traced:.4} s - untraced wall {wall_plain:.4} s - extra layer calls {extra_s:.4} s / {threads} workers = {overhead:.4} s"
    );

    let extra = |f: fn(&ExtraCalls) -> u64| {
        move |r: &Rep| sum_s(&r.records, |x| x.extra.map_or(0, |e| f(&e)) as f64)
    };
    let topo = |r: &Rep| sum_s(&r.records, |x| x.topo_ns as f64);
    let dist = extra(|e| e.distance_ns * DISTANCE_CALLS_PER_SIM);
    let updown = extra(|e| e.updown_ns);
    let drainpath = extra(|e| e.drainpath_ns);
    let assemble = |r: &Rep| {
        sum_s(&r.records, |x| {
            x.construct_ns as f64 - x.extra.map_or(0, |e| e.in_construction_ns()) as f64
        })
    };
    let phase = |i: usize| move |r: &Rep| sum_s(&r.records, |x| x.phase_ns[i]);
    // Busy time net of the extra calls: what the untraced grid would keep
    // the workers busy with.
    let busy = |r: &Rep| r.busy_s - r.extra_s();

    println!(
        "layer self time on traced runs (median), share of engine busy time net of extra calls:"
    );
    let mut rows: Vec<(String, f64)> = vec![
        ("topology.build (+faults, chiplet)".into(), med(&topo)),
        ("topology.distance (x2 per Sim)".into(), med(&dist)),
        ("topology.updown".into(), med(&updown)),
        ("drainpath.compute".into(), med(&drainpath)),
        ("baselines::assemble + core assembly".into(), med(&assemble)),
    ];
    for (i, p) in PHASES.iter().enumerate() {
        rows.push((format!("netsim.phase.{p}"), med(&phase(i))));
    }
    let busy_s = med(&busy);
    let covered: f64 = rows.iter().map(|(_, s)| s).sum();
    rows.push((
        "bench::engine + harness (rest of busy)".into(),
        busy_s - covered,
    ));
    for (name, s) in &rows {
        println!("  {name:<40} {s:>10.4} s {:>6.1}%", 100.0 * s / busy_s);
    }
    println!(
        "  setup share of busy time: {:.1}%",
        100.0 * med(&|r| r.setup_s() / busy(r))
    );

    let mut out = vec![
        metric("engine.busy_s", median(plain.iter().map(|r| r.busy_s)), "s"),
        metric(
            "engine.queue_wait_s",
            median(plain.iter().map(|r| r.queue_wait_s)),
            "s",
        ),
        metric(
            "engine.utilization",
            median(plain.iter().map(|r| r.utilization)),
            "ratio",
        ),
        metric(
            "engine.setup_share",
            median(plain.iter().map(|r| r.setup_s() / r.busy_s)),
            "ratio",
        ),
        metric("topology.build_s", med(&topo), "s"),
        metric("topology.distance_s", med(&extra(|e| e.distance_ns)), "s"),
        metric("topology.updown_s", med(&updown), "s"),
        metric("drainpath.compute_s", med(&drainpath), "s"),
        metric(
            "drainpath.circuit_links",
            t.count(|x| x.extra.map_or(0, |e| e.circuit_links)) as f64,
            "count",
        ),
        metric("assemble.build_s", med(&assemble), "s"),
        metric("netsim.run_s", med(&Rep::run_s), "s"),
        metric(
            "netsim.ns_per_cycle",
            med(&|r| r.run_s() * 1e9 / r.count(|x| x.sim_cycles) as f64),
            "ns",
        ),
        metric(
            "netsim.sim_cycles",
            t.count(|x| x.sim_cycles) as f64,
            "count",
        ),
    ];
    for (i, p) in PHASES.iter().enumerate() {
        out.push(metric(&format!("netsim.phase.{p}_s"), med(&phase(i)), "s"));
        out.push(metric(
            &format!("netsim.phase.{p}_share"),
            med(&|r| phase(i)(r) / r.run_s()),
            "ratio",
        ));
    }
    for ((name, _, _), sum) in COUNTERS.iter().zip(plain[0].counter_sums()) {
        out.push(metric(name, sum.unwrap_or(0) as f64, "count"));
    }
    out.push(metric(
        "coherence.runtime_cycles",
        t.count(|x| if x.is_app { x.sim_cycles } else { 0 }) as f64,
        "count",
    ));
    out.push(metric("trace.extra_calls_s", extra_s, "s"));
    out.push(metric("trace.overhead_s", overhead, "s"));
    out
}

/// Prints the run's checks: failures, same-seed repeatability and the
/// figure-path identity.
pub fn print_checks(
    first: &Rep,
    figure_path: bool,
    same_results: bool,
    failed: usize,
    attempted: usize,
) {
    println!(
        "result digest {:#018x} over {} points",
        first.digest(),
        first.records.len()
    );
    println!(
        "fail_ratio {failed}/{attempted} = {}",
        failed as f64 / attempted.max(1) as f64
    );
    for (i, r) in first.records.iter().enumerate() {
        if let Some(why) = &r.failure {
            println!("  point {i} failed: {why}");
        }
    }
    println!("repeat runs give identical results and counters: {same_results}");
    println!("timed path is bit-identical to the figure path on the last point: {figure_path}");
}

/// Prints the deterministic work counters of one grid run.
pub fn print_counters(first: &Rep) {
    for ((name, family, _), sum) in COUNTERS.iter().zip(first.counter_sums()) {
        match sum {
            Some(v) => println!("counter {name} = {v}"),
            None => println!("counter {name} absent (no {family} family)"),
        }
    }
}

/// Writes the traced runs' layer spans as JSON lines under
/// `perfbench/out/` (relative to the working directory).
pub fn write_spans(workload: &str, seed: u64, traced: &[Rep]) {
    let mut out = String::new();
    for (rep, r) in traced.iter().enumerate() {
        for (point, x) in r.records.iter().enumerate() {
            let e = x.extra.unwrap_or_default();
            let mut at = x.start_ns;
            let total = x.setup_ns() + e.total_ns() + x.run_ns;
            let mut span = |name: &str, parent: &str, start: u64, dur: u64| {
                let _ = writeln!(
                    out,
                    "{{\"rep\":{rep},\"point\":{point},\"span\":\"{name}\",\"parent\":\"{parent}\",\"start_ns\":{start},\"dur_ns\":{dur}}}"
                );
            };
            span("point", "", at, total);
            for (name, dur) in [
                ("topology.build", x.topo_ns),
                ("scheme.sim", x.construct_ns),
                ("topology.distance", e.distance_ns),
                ("topology.updown", e.updown_ns),
                ("drainpath.compute", e.drainpath_ns),
                ("netsim.run", x.run_ns),
            ] {
                span(name, "point", at, dur);
                at += dur;
            }
        }
    }
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }
}

/// The final JSON result line.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=90).map(f64::from).collect();
        // p88 of 90: rank 80, ten samples beyond it.
        assert_eq!(tail_percentile(90), 88);
        assert_eq!(percentile(&v, 88), 80.0);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(7), 100);
        assert_eq!(percentile(&[1.0, 5.0], 100), 5.0);
    }

    #[test]
    fn json_line_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[metric("wall_s", 1.5, "s"), metric("n", 2.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
