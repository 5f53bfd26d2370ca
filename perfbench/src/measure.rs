//! The timed path of one grid point: construction, simulation, checks,
//! work counters and (on traced runs) layer spans.
//!
//! Points are built and run exactly the way the figures build and run
//! them ([`PointSpec::run`], [`AppJob::run`]), with clocks read between
//! the public calls; [`figure_path_matches`] proves it by comparing bits.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

use drain_bench::apps::{AppJob, AppRun};
use drain_bench::cache::fnv1a64;
use drain_bench::sweep::plan::PointSpec;
use drain_bench::sweep::Point;
use drain_bench::{Scale, Scheme};
use drain_netsim::{MetricValue, MetricsSnapshot, RunOutcome, Sim};
use drain_path::DrainPath;
use drain_topology::distance::DistanceMap;
use drain_topology::faults::FaultInjector;
use drain_topology::updown::UpDownRouting;
use drain_topology::Topology;

use crate::grid::{AppSpec, Job};

/// Phase profiler cadence on traced runs (one cycle in this many).
pub const PROFILE_PERIOD: u64 = 8;

/// `(benchmark name, metric family, labels every summed sample carries)`.
pub type CounterSpec = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

/// Work counters read from [`Sim::metrics_snapshot`] by family name.
/// Samples are summed over any other label (e.g. the RNG mode).
pub const COUNTERS: [CounterSpec; 15] = [
    ("netsim.flit_hops", "drain_flit_hops_total", &[]),
    ("netsim.packets_ejected", "drain_packets_ejected_total", &[]),
    ("netsim.misroutes", "drain_misroutes_total", &[]),
    (
        "netsim.rng_draws.phase_a",
        "drain_rng_draws_total",
        &[("site", "phase_a")],
    ),
    (
        "netsim.rng_draws.injection",
        "drain_rng_draws_total",
        &[("site", "injection")],
    ),
    (
        "netsim.rng_draws.mechanism",
        "drain_rng_draws_total",
        &[("site", "mechanism")],
    ),
    (
        "netsim.wake.parks",
        "drain_wake_events_total",
        &[("event", "parks")],
    ),
    (
        "netsim.wake.wakes",
        "drain_wake_events_total",
        &[("event", "wakes")],
    ),
    (
        "netsim.wake.spurious",
        "drain_wake_events_total",
        &[("event", "spurious_wakes")],
    ),
    (
        "netsim.ff_cycles_skipped",
        "drain_ff_cycles_skipped_total",
        &[],
    ),
    ("core.drains", "drain_drains_total", &[]),
    ("core.full_drains", "drain_full_drains_total", &[]),
    ("core.forced_hops", "drain_forced_hops_total", &[]),
    ("baselines.spins", "drain_spins_total", &[]),
    ("baselines.probe_hops", "drain_probe_hops_total", &[]),
];

/// Kernel phases reported by the benchmark; the profiler's `fabric` and
/// `checks` phases (idle in the default configuration) fold into `other`.
pub const PHASES: [&str; 7] = [
    "endpoints",
    "mechanism",
    "phase_a",
    "phase_b",
    "forced",
    "telemetry",
    "other",
];

/// Host times of the construction layers, measured on traced runs by
/// extra calls from outside right after construction (which computes
/// them internally), so the timed construction itself stays cold.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtraCalls {
    /// One `DistanceMap::new` on the point's topology.
    pub distance_ns: u64,
    /// `UpDownRouting::new` (EscapeVC on irregular topologies only).
    pub updown_ns: u64,
    /// `DrainPath::compute` (DRAIN points only).
    pub drainpath_ns: u64,
    /// Links on the computed drain path.
    pub circuit_links: u64,
}

/// `DistanceMap::new` calls `Sim` construction makes: one for the routing
/// function, one for the simulator core.
pub const DISTANCE_CALLS_PER_SIM: u64 = 2;

impl ExtraCalls {
    /// Total host time of the extra calls.
    pub fn total_ns(&self) -> u64 {
        self.distance_ns + self.updown_ns + self.drainpath_ns
    }

    /// Estimated time construction spends inside the three layers.
    pub fn in_construction_ns(&self) -> u64 {
        self.distance_ns * DISTANCE_CALLS_PER_SIM + self.updown_ns + self.drainpath_ns
    }
}

/// A point's simulated result.
#[derive(Clone, Copy, Debug)]
pub enum Outcome {
    /// Synthetic point.
    Point(Point),
    /// Application run.
    App(AppRun),
}

impl Outcome {
    /// Every field, as bits, in a fixed order.
    pub fn bits(&self) -> Vec<u64> {
        match *self {
            Outcome::Point(p) => vec![
                p.offered.to_bits(),
                p.throughput.to_bits(),
                p.latency.to_bits(),
                p.p99,
            ],
            Outcome::App(r) => vec![
                r.latency.to_bits(),
                r.p99,
                r.runtime.to_bits(),
                r.deadlocked as u64,
                r.cycles,
            ],
        }
    }

    /// FNV-1a digest of [`Outcome::bits`].
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self.bits().iter().flat_map(|b| b.to_le_bytes()).collect();
        fnv1a64(&bytes)
    }
}

/// Everything measured about one point.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Why the point failed, if it did.
    pub failure: Option<String>,
    /// The simulated result (absent when the point panicked).
    pub outcome: Option<Outcome>,
    /// Topology and fault construction.
    pub topo_ns: u64,
    /// `Scheme::*_sim`: point spec plus topology to a runnable `Sim`.
    pub construct_ns: u64,
    /// `Sim::warmup_and_measure` / `Sim::run`.
    pub run_ns: u64,
    /// Simulated cycles (including fast-forwarded ones).
    pub sim_cycles: u64,
    /// Work counters in [`COUNTERS`] order (`None` = family absent).
    pub counters: Vec<Option<u64>>,
    /// Host nanoseconds per phase in [`PHASES`] order: the profiler's
    /// sampled share of each phase times `run_ns` (traced runs only).
    pub phase_ns: [f64; 7],
    /// Layer calls from outside (traced runs only).
    pub extra: Option<ExtraCalls>,
    /// Whether this is a closed-loop application run.
    pub is_app: bool,
    /// When the point started, in nanoseconds since the process's first
    /// point (span timestamps).
    pub start_ns: u64,
}

impl Record {
    /// Host time from point spec to a runnable `Sim`.
    pub fn setup_ns(&self) -> u64 {
        self.topo_ns + self.construct_ns
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Nanoseconds since the first call in this process.
fn clock_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    ns_since(*EPOCH.get_or_init(Instant::now))
}

/// Sums every sample of counter family `family` that carries all of
/// `labels`; `None` when the family is absent.
pub fn sum_counter(m: &MetricsSnapshot, family: &str, labels: &[(&str, &str)]) -> Option<u64> {
    let fam = m.family(family)?;
    let total = fam
        .samples
        .iter()
        .filter(|s| {
            labels
                .iter()
                .all(|&(k, v)| s.labels.iter().any(|(a, b)| a == k && b == v))
        })
        .map(|s| match s.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    Some(total)
}

fn phase_ns(m: &MetricsSnapshot, run_ns: u64) -> [f64; 7] {
    let mut out = [0.0; 7];
    let Some(cycle) = sum_counter(m, "drain_profile_cycle_nanos_total", &[]).filter(|&c| c > 0)
    else {
        return out;
    };
    let mut attributed = 0.0;
    for (i, phase) in PHASES.iter().enumerate().take(6) {
        let share = sum_counter(m, "drain_profile_phase_nanos_total", &[("phase", phase)])
            .unwrap_or(0) as f64
            / cycle as f64;
        out[i] = share * run_ns as f64;
        attributed += out[i];
    }
    out[6] = run_ns as f64 - attributed;
    out
}

fn extra_calls(topo: &Topology, scheme: Scheme, full_mesh: bool) -> ExtraCalls {
    let mut e = ExtraCalls::default();
    let t = Instant::now();
    black_box(DistanceMap::new(topo));
    e.distance_ns = ns_since(t);
    if scheme == Scheme::EscapeVc && !full_mesh {
        let t = Instant::now();
        black_box(UpDownRouting::new(topo));
        e.updown_ns = ns_since(t);
    }
    if matches!(scheme, Scheme::Drain(_)) {
        let t = Instant::now();
        let path = black_box(DrainPath::compute(topo).expect("grid topologies are connected"));
        e.drainpath_ns = ns_since(t);
        e.circuit_links = path.len() as u64;
    }
    e
}

/// The point's correctness checks, on the finished simulation.
fn check(sim: &Sim, outcome: RunOutcome) -> Option<String> {
    if let Some(v) = sim.violation() {
        return Some(format!("invariant violation: {v}"));
    }
    if outcome == RunOutcome::InvariantViolation {
        return Some("invariant violation".into());
    }
    let s = sim.stats();
    let in_network = sim.core().packets_in_network() as u64;
    if s.injected.checked_sub(s.ejected) != Some(in_network) {
        return Some(format!(
            "conservation: injected {} - ejected {} != {in_network} in network",
            s.injected, s.ejected
        ));
    }
    if s.window_ejected == 0 {
        return Some("the measurement window delivered nothing".into());
    }
    None
}

/// Runs a built simulation through the common tail: profiler, timed run,
/// checks, counters.
fn finish(
    mut rec: Record,
    mut sim: Sim,
    traced: bool,
    run: impl FnOnce(&mut Sim) -> RunOutcome,
    result: impl FnOnce(&Sim, RunOutcome) -> Outcome,
) -> Record {
    if traced {
        sim.set_profile_period(PROFILE_PERIOD);
    }
    let t = Instant::now();
    let outcome = run(&mut sim);
    rec.run_ns = ns_since(t);
    rec.sim_cycles = sim.core().cycle();
    let result = result(&sim, outcome);
    rec.failure = check(&sim, outcome);
    if let (None, Outcome::App(r)) = (&rec.failure, result) {
        if r.deadlocked {
            rec.failure = Some("application run ended deadlocked".into());
        }
    }
    let m = sim.metrics_snapshot();
    rec.counters = COUNTERS
        .iter()
        .map(|&(_, fam, labels)| sum_counter(&m, fam, labels))
        .collect();
    if traced {
        rec.phase_ns = phase_ns(&m, rec.run_ns);
    }
    rec.outcome = Some(result);
    rec
}

fn synthetic_point(spec: &PointSpec, traced: bool, build: impl FnOnce(&Topology) -> Sim) -> Record {
    let mut rec = Record {
        start_ns: clock_ns(),
        ..Record::default()
    };
    let t = Instant::now();
    let topo = spec.topo.build();
    rec.topo_ns = ns_since(t);
    let t = Instant::now();
    let sim = build(&topo);
    rec.construct_ns = ns_since(t);
    if traced {
        rec.extra = Some(extra_calls(&topo, spec.scheme, spec.topo.full_mesh()));
    }
    let scale = spec.scale;
    finish(
        rec,
        sim,
        traced,
        |sim| sim.warmup_and_measure(scale.warmup(), scale.measure()),
        // The same fold as `drain_bench::sweep::measure_point_hops`.
        |sim, _| {
            let now = sim.core().cycle();
            let s = sim.stats();
            Outcome::Point(Point {
                offered: spec.rate,
                throughput: s.throughput(now, topo.num_nodes()),
                latency: s.net_latency.mean(),
                p99: s.net_latency.p99(),
            })
        },
    )
}

fn app_point(spec: &AppSpec, traced: bool) -> Record {
    let scale = Scale::Quick;
    let mut rec = Record {
        is_app: true,
        start_ns: clock_ns(),
        ..Record::default()
    };
    let t = Instant::now();
    let topo = if spec.faults == 0 {
        spec.base.clone()
    } else {
        FaultInjector::new(spec.seed)
            .remove_links(&spec.base, spec.faults)
            .expect("a 4x4 mesh keeps 8 faults connected")
    };
    rec.topo_ns = ns_since(t);
    let full_mesh = spec.faults == 0;
    let quota = scale.app_quota();
    let t = Instant::now();
    let sim = spec.scheme.coherence_sim(
        &topo,
        full_mesh,
        &spec.app,
        Some(quota),
        spec.seed,
        spec.epoch,
    );
    rec.construct_ns = ns_since(t);
    if traced {
        rec.extra = Some(extra_calls(&topo, spec.scheme, full_mesh));
    }
    finish(
        rec,
        sim,
        traced,
        |sim| sim.run(scale.app_budget()),
        // The same fold as `drain_bench::apps::run_app`.
        |sim, outcome| {
            let cycles = sim.core().cycle() as f64;
            let runtime = if outcome == RunOutcome::WorkloadFinished {
                cycles
            } else {
                let target = (quota as f64) * topo.num_nodes() as f64;
                let progress = (sim.stats().ejected as f64 / target).max(1e-3);
                cycles / progress.min(1.0)
            };
            Outcome::App(AppRun {
                latency: sim.stats().net_latency.mean(),
                p99: sim.stats().net_latency.p99(),
                runtime,
                deadlocked: sim.stats().watchdog_deadlock,
                cycles: sim.core().cycle(),
            })
        },
    )
}

#[cfg(test)]
fn sabotaged_point(spec: &PointSpec, traced: bool) -> Record {
    use drain_core::{DrainConfig, DrainMechanism};
    use drain_netsim::routing::FullyAdaptive;
    use drain_netsim::traffic::SyntheticTraffic;
    use drain_netsim::{CheckConfig, SimConfig};

    synthetic_point(spec, traced, |topo| {
        let mut path = DrainPath::compute(topo).expect("connected topology");
        let skew: Vec<_> = topo
            .link_ids()
            .map(|l| (l, path.next_link(path.next_link(l))))
            .collect();
        for (from, to) in skew {
            path.corrupt_turn_for_tests(from, to);
        }
        let config = SimConfig {
            num_classes: 1,
            seed: spec.seed,
            watchdog_threshold: 0,
            // Forced moves need occupied escape VCs to expose the skew.
            escape_entry_patience: 0,
            checks: CheckConfig {
                forced_moves: true,
                ..CheckConfig::default()
            },
            ..SimConfig::drain_default()
        };
        let mech = DrainMechanism::new(
            path,
            DrainConfig {
                epoch: spec.epoch,
                ..DrainConfig::default()
            },
        );
        Sim::new(
            topo.clone(),
            config,
            Box::new(FullyAdaptive::new(topo)),
            Box::new(mech),
            Box::new(SyntheticTraffic::new(
                spec.pattern.clone(),
                spec.rate,
                1,
                spec.seed,
            )),
        )
    })
}

/// Runs one grid point on the calling worker. A panic is caught and
/// recorded as the point's failure, so the grid carries on.
pub fn run_job(job: &Job, traced: bool) -> Record {
    let run = || match job {
        Job::Point(spec) => synthetic_point(spec, traced, |topo| {
            spec.scheme.synthetic_sim_hops(
                topo,
                spec.topo.full_mesh(),
                spec.pattern.clone(),
                spec.rate,
                spec.seed,
                spec.epoch,
                spec.hops_per_drain,
            )
        }),
        Job::App(spec) => app_point(spec, traced),
        #[cfg(test)]
        Job::Sabotaged(spec) => sabotaged_point(spec, traced),
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Record {
            failure: Some(format!("panicked: {}", msg.lines().next().unwrap_or(""))),
            counters: vec![None; COUNTERS.len()],
            is_app: matches!(job, Job::App(_)),
            ..Record::default()
        }
    })
}

/// Whether `job`'s public figure path ([`PointSpec::run`] /
/// [`AppJob::run`]) reproduces the benchmark's timed result bit for bit.
pub fn figure_path_matches(job: &Job, timed: &Outcome) -> bool {
    let reference = match job {
        Job::Point(spec) => Outcome::Point(spec.run()),
        // `AppJob` runs at the default epoch only.
        Job::App(spec) if spec.epoch != Scheme::DEFAULT_EPOCH => return false,
        Job::App(spec) => Outcome::App(
            AppJob {
                scheme: spec.scheme,
                app: &spec.app,
                base: &spec.base,
                faults: spec.faults,
                seed: spec.seed,
                scale: Scale::Quick,
            }
            .run(),
        ),
        #[cfg(test)]
        Job::Sabotaged(_) => return false,
    };
    reference.bits() == timed.bits()
}
