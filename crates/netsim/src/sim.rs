//! The top-level simulation driver.
//!
//! [`Sim`] sequences one cycle as: endpoints (consume/produce) → mechanism
//! control (drain/spin/freeze decisions) → network allocation → watchdog &
//! detector instrumentation.

use std::path::{Path, PathBuf};

use crate::check::{self, Violation};
use crate::deadlock;
use crate::mechanism::{ControlAction, Mechanism};
use crate::metrics::{MetricsSnapshot, Phase};
use crate::state::SimCore;
use crate::stats::Stats;
use crate::trace::{self, TraceEvent, TraceSink};
use crate::traffic::Endpoints;
use crate::SimConfig;
use drain_topology::IntoSharedTopology;

/// Why a bounded run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The cycle budget was exhausted.
    BudgetExhausted,
    /// The endpoint model reported completion.
    WorkloadFinished,
    /// A deadlock was observed (structural detector or watchdog) and the
    /// run was configured to stop on deadlock.
    Deadlocked,
    /// A runtime invariant check failed and the run was configured not to
    /// panic; the report is available via [`Sim::violation`].
    InvariantViolation,
}

/// A complete simulation: state + mechanism + endpoints.
///
/// `Sim` is `Send` (every plugin trait — [`Mechanism`], [`Endpoints`],
/// [`crate::routing::Routing`] — requires `Send`), so whole simulations
/// can be handed to worker threads; the experiment harness's parallel
/// sweep engine relies on this.
pub struct Sim {
    core: SimCore,
    mechanism: Box<dyn Mechanism>,
    endpoints: Box<dyn Endpoints>,
    stop_on_deadlock: bool,
    violation: Option<Violation>,
    flight_record: Option<PathBuf>,
    /// Idle cycles elided by fast-forward (simulator-speed accounting
    /// only — deliberately *not* part of [`Stats`], which must be
    /// bit-identical with fast-forward on or off).
    ff_cycles_skipped: u64,
    /// Number of fast-forward jumps taken.
    ff_jumps: u64,
    /// Cycles on which the cheap per-cycle invariant tier ran (outside
    /// [`Stats`] for the same reason as the fast-forward counters).
    check_sweeps: u64,
    /// Cycles on which the deep invariant tier additionally ran.
    check_deep_sweeps: u64,
}

// Compile-time audit of the `Send` guarantee documented above: building a
// `Sim` on one thread and running it on another is what the bench crate's
// worker pool does on every job.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Sim>();
    assert_send::<Stats>();
};

impl Sim {
    /// Assembles a simulation.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(
        topo: impl IntoSharedTopology,
        config: SimConfig,
        routing: Box<dyn crate::routing::Routing>,
        mechanism: Box<dyn Mechanism>,
        endpoints: Box<dyn Endpoints>,
    ) -> Self {
        Sim {
            core: SimCore::new(topo, config, routing),
            mechanism,
            endpoints,
            stop_on_deadlock: false,
            violation: None,
            flight_record: None,
            ff_cycles_skipped: 0,
            ff_jumps: 0,
            check_sweeps: 0,
            check_deep_sweeps: 0,
        }
    }

    /// Makes [`Sim::run`] return early once a deadlock is observed.
    pub fn stop_on_deadlock(mut self, stop: bool) -> Self {
        self.stop_on_deadlock = stop;
        self
    }

    /// Forces the idle-cycle fast-forward gate (see
    /// [`SimConfig::fast_forward`]) on or off for an assembled simulation.
    /// Results are bit-identical either way; differential tests use this to
    /// prove it.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.core.set_fast_forward(enabled);
    }

    /// Switches the wake-driven Phase A scheduler (see
    /// [`SimConfig::wake_scheduler`]) on or off for an assembled
    /// simulation, resetting all wake state. Results are bit-identical
    /// either way; the wake-vs-dense differential tests prove it.
    pub fn set_wake_scheduler(&mut self, enabled: bool) {
        self.core.set_wake_scheduler(enabled);
    }

    /// Switches the tie-break sample source (see [`crate::rng`]) for an
    /// assembled simulation: the serial draw stream (default) or the
    /// keyed counter-based mixer. Meant for pre-run configuration — the
    /// two modes produce different (equally valid) random sequences and
    /// therefore separate golden-pin families; *within* a mode, results
    /// are bit-identical across wake scheduling, fast-forward and
    /// profiler cadence (the keyed differential suite
    /// proves it).
    pub fn set_rng_mode(&mut self, mode: crate::rng::RngMode) {
        self.core.set_rng_mode(mode);
    }

    /// The simulation state.
    pub fn core(&self) -> &SimCore {
        &self.core
    }

    /// Mutable simulation state (for scripted tests).
    pub fn core_mut(&mut self) -> &mut SimCore {
        &mut self.core
    }

    /// Statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    /// The mechanism's name.
    pub fn mechanism_name(&self) -> &str {
        self.mechanism.name()
    }

    /// The endpoint model's name.
    pub fn endpoints_name(&self) -> &str {
        self.endpoints.name()
    }

    /// Downcasts the endpoint model to its concrete type (e.g. to read the
    /// coherence engine's protocol statistics mid-run).
    pub fn endpoints_as<T: 'static>(&self) -> Option<&T> {
        self.endpoints.as_any().downcast_ref::<T>()
    }

    /// Opens a fresh measurement window (call after warmup).
    pub fn open_measurement_window(&mut self) {
        let c = self.core.cycle();
        self.core.stats.open_window(c);
    }

    /// The first invariant violation observed, when the run was configured
    /// not to panic ([`crate::check::CheckConfig::no_panic`]).
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// Installs a trace sink and enables event capture (see
    /// [`crate::trace`]). Sinks live outside [`SimConfig`] because they
    /// can hold file handles; configs stay `Clone + PartialEq`.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.core.tracer_mut().set_sink(sink);
    }

    /// Flushes a writer trace sink, if one is installed.
    ///
    /// # Errors
    ///
    /// The writer's flush error, if any.
    pub fn flush_trace(&mut self) -> std::io::Result<()> {
        self.core.tracer_mut().flush()
    }

    /// Path of the flight-recorder dump written by this run, if the run
    /// failed and [`crate::TraceConfig::flightrec_dir`] was configured.
    pub fn flight_record(&self) -> Option<&Path> {
        self.flight_record.as_deref()
    }

    /// Advances the simulation by one cycle.
    ///
    /// With [`crate::check::CheckConfig`] flags enabled, forced
    /// permutations are validated before they are applied and the whole
    /// core is re-checked at the end of the cycle. A violation panics with
    /// a replayable report, or — with
    /// [`crate::check::CheckConfig::no_panic`] — is recorded and freezes
    /// the simulation (further steps are no-ops).
    ///
    /// # Panics
    ///
    /// Panics with the [`Violation`] report when a check fails and
    /// `panic_on_violation` is set (the default for enabled checks).
    pub fn step(&mut self) {
        if self.violation.is_some() {
            return;
        }
        // Phase-profiler brackets: pure observers (wall clock in, nothing
        // out), each a single bool check when the cycle is not sampled.
        self.core.prof_begin_cycle(self.core.cycle());
        self.endpoints.pre_cycle(&mut self.core);
        self.core.prof_mark(Phase::Endpoints);
        let action = self.mechanism.control(&mut self.core);
        self.core.prof_mark(Phase::Mechanism);
        match action {
            ControlAction::Normal => self.core.allocate_and_move(),
            ControlAction::Freeze => {}
            ControlAction::Forced(moves, kind) => {
                if self.core.config().checks.forced_moves {
                    if let Err(v) = check::validate_forced(&self.core, &moves) {
                        self.fail(v);
                        return;
                    }
                }
                self.core.apply_forced(&moves, kind);
                self.core.prof_mark(Phase::Forced);
            }
        }
        // All of this cycle's vacates (allocation or forced) have
        // committed — deliver the surviving wake fires before the
        // validators look at the parked set.
        self.core.flush_wakes();
        self.core.prof_mark(Phase::PhaseA);
        self.instrument();
        self.core.prof_mark(Phase::Mechanism);
        self.core.telemetry_tick();
        self.core.prof_mark(Phase::Telemetry);
        if self.core.config().checks.any_per_cycle() {
            self.check_sweeps += 1;
            if check::deep_sweep_due(&self.core.config().checks, self.core.cycle()) {
                self.check_deep_sweeps += 1;
            }
            if let Err(v) = check::run_checks(&self.core) {
                self.fail(v);
                return;
            }
            self.core.prof_mark(Phase::Checks);
        }
        self.core.advance_cycle();
        self.core.prof_end_cycle();
    }

    fn fail(&mut self, v: Violation) {
        self.core.trace_emit(TraceEvent::InvariantViolation {
            cycle: v.cycle,
            kind: v.kind,
            seed: v.seed,
            detail: v.detail.clone(),
        });
        self.record_failure("invariant");
        if self.core.config().checks.panic_on_violation {
            panic!("{v}");
        }
        self.violation = Some(v);
    }

    /// Dumps a flight record for the first failure of the run (no-op when
    /// [`crate::TraceConfig::flightrec_dir`] is unset).
    fn record_failure(&mut self, reason: &str) {
        if self.flight_record.is_some() {
            return;
        }
        if let Some(path) = trace::flight_record(&self.core, reason) {
            eprintln!("flight record written to {}", path.display());
            self.flight_record = Some(path);
        }
    }

    fn instrument(&mut self) {
        let interval = self.core.config().deadlock_check_interval;
        let wd = self.core.config().watchdog_threshold;
        let now = self.core.cycle();
        if interval > 0 && now % interval == interval - 1 {
            let report = deadlock::detect(&self.core);
            if report.is_deadlocked() {
                let first = self.core.stats.first_deadlock_cycle == u64::MAX;
                self.core.stats.deadlocks_detected += 1;
                if first {
                    self.core.stats.first_deadlock_cycle = now;
                    if self.core.trace_enabled() {
                        let r = report.deadlocked[0];
                        self.core.trace_emit(TraceEvent::DeadlockConviction {
                            cycle: now,
                            convicted: report.deadlocked.len() as u32,
                            link: r.link.0,
                            vn: r.vn,
                            vc: r.vc,
                        });
                    }
                    self.record_failure("deadlock");
                }
            }
        }
        let idle = now.saturating_sub(self.core.stats.last_progress_cycle);
        if wd > 0 && self.core.packets_in_network() > 0 && idle > wd {
            let first = !self.core.stats.watchdog_deadlock;
            self.core.stats.watchdog_deadlock = true;
            if self.core.stats.first_deadlock_cycle == u64::MAX {
                self.core.stats.first_deadlock_cycle = now;
            }
            if first {
                self.core
                    .trace_emit(TraceEvent::WatchdogTrip { cycle: now, idle });
                self.record_failure("watchdog");
            }
        }
    }

    /// Idle cycles elided by fast-forward so far (see
    /// [`SimConfig::fast_forward`]). Not part of [`Stats`]: results are
    /// bit-identical whether cycles were stepped or skipped.
    pub fn ff_cycles_skipped(&self) -> u64 {
        self.ff_cycles_skipped
    }

    /// Number of fast-forward jumps taken so far.
    pub fn ff_jumps(&self) -> u64 {
        self.ff_jumps
    }

    /// Cycles on which the cheap per-cycle invariant tier ran.
    pub fn check_sweeps(&self) -> u64 {
        self.check_sweeps
    }

    /// Cycles on which the deep invariant tier additionally ran.
    pub fn check_deep_sweeps(&self) -> u64 {
        self.check_deep_sweeps
    }

    /// Reconfigures the kernel phase profiler's sampling cadence for an
    /// assembled simulation (0 disables; see
    /// [`crate::metrics::MetricsConfig::profile_period`]). A pure
    /// observer — results are bit-identical at any cadence, and the
    /// metrics differential tests prove it.
    pub fn set_profile_period(&mut self, period: u64) {
        self.core.set_profile_period(period);
    }

    /// Collects every counter family the simulation maintains into one
    /// [`MetricsSnapshot`] under the stable `drain_` namespace: `Stats`
    /// (packets, latency histograms, mechanism events), wake-scheduler
    /// counters, per-site RNG draw volume, fast-forward accounting,
    /// check-tier sweeps, telemetry/trace volume,
    /// occupancy gauges, and — when enabled — the phase profiler's
    /// attribution.
    ///
    /// Collection is pull-based: the counters are maintained anyway, so
    /// taking a snapshot costs nothing between scrapes and cannot
    /// perturb the simulation.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        let s = &self.core.stats;
        m.counter(
            "drain_packets_generated_total",
            "Packets created by endpoints",
            s.generated,
        );
        m.counter(
            "drain_packets_injected_total",
            "Packets that entered the network",
            s.injected,
        );
        m.counter(
            "drain_packets_ejected_total",
            "Packets delivered to an ejection queue",
            s.ejected,
        );
        m.histogram(
            "drain_net_latency_cycles",
            "Network latency, injection to ejection",
            s.net_latency.snapshot(),
        );
        m.histogram(
            "drain_total_latency_cycles",
            "Total latency, creation to ejection",
            s.total_latency.snapshot(),
        );
        m.counter("drain_hops_total", "Hops over ejected packets", s.hops);
        m.counter(
            "drain_misroutes_total",
            "Hops that did not reduce distance to the destination",
            s.misroutes,
        );
        m.counter(
            "drain_forced_hops_total",
            "Hops forced by drains or spins",
            s.forced_hops,
        );
        m.counter(
            "drain_flit_hops_total",
            "Flit-link traversals",
            s.flit_hops,
        );
        m.counter("drain_drains_total", "Drain windows executed", s.drains);
        m.counter(
            "drain_full_drains_total",
            "Full drains executed",
            s.full_drains,
        );
        m.counter("drain_spins_total", "Spin moves executed", s.spins);
        m.counter(
            "drain_probe_hops_total",
            "Probe message hops sent (SPIN)",
            s.probe_hops,
        );
        m.counter(
            "drain_deadlocks_detected_total",
            "Structural deadlocks detected",
            s.deadlocks_detected,
        );
        m.counter(
            "drain_oracle_resolutions_total",
            "Deadlocks resolved by the oracle mechanism",
            s.oracle_resolutions,
        );
        let w = self.core.wake_counters();
        for (event, v) in [
            ("parks", w.parks),
            ("skips", w.skips),
            ("wakes", w.wakes),
            ("spurious_wakes", w.spurious_wakes),
            ("wake_alls", w.wake_alls),
            ("stalls", w.stalls),
        ] {
            m.counter_labeled(
                "drain_wake_events_total",
                "Wake-driven Phase A scheduler events",
                &[("event", event)],
                v,
            );
        }
        let mode = self.core.config().rng_mode.label();
        for (site, v) in crate::rng::DrawSite::ALL
            .iter()
            .zip(self.core.rng_draw_counts())
        {
            m.counter_labeled(
                "drain_rng_draws_total",
                "Tie-break RNG samples produced, by draw site and RNG mode",
                &[("site", site.label()), ("mode", mode)],
                v,
            );
        }
        m.counter(
            "drain_ff_cycles_skipped_total",
            "Idle cycles elided by fast-forward",
            self.ff_cycles_skipped,
        );
        m.counter(
            "drain_ff_jumps_total",
            "Fast-forward jumps taken",
            self.ff_jumps,
        );
        m.counter_labeled(
            "drain_check_sweeps_total",
            "Invariant check sweeps by tier",
            &[("tier", "cheap")],
            self.check_sweeps,
        );
        m.counter_labeled(
            "drain_check_sweeps_total",
            "Invariant check sweeps by tier",
            &[("tier", "deep")],
            self.check_deep_sweeps,
        );
        let telem = self.core.telemetry();
        m.counter(
            "drain_telemetry_samples_taken_total",
            "Telemetry samples taken",
            telem.samples_taken(),
        );
        m.counter(
            "drain_telemetry_samples_dropped_total",
            "Telemetry samples dropped by the retention bound",
            telem.samples_dropped(),
        );
        let tr = self.core.tracer();
        m.counter(
            "drain_trace_events_total",
            "Trace events emitted",
            tr.emitted(),
        );
        m.counter(
            "drain_trace_sink_errors_total",
            "Trace sink write errors",
            tr.sink_errors(),
        );
        m.gauge(
            "drain_cycle",
            "Current simulation cycle",
            self.core.cycle() as f64,
        );
        m.gauge(
            "drain_packets_in_network",
            "Packets currently inside VC buffers",
            self.core.packets_in_network() as f64,
        );
        m.gauge(
            "drain_live_packets",
            "Live packets anywhere (queues + network)",
            self.core.live_packets() as f64,
        );
        m.gauge(
            "drain_ejection_backlog",
            "Packets parked in ejection queues",
            self.core.ejection_backlog() as f64,
        );
        self.core.profiler().collect(&mut m);
        m
    }

    /// Attempts an idle-cycle fast-forward after a completed step: when
    /// the network, the mechanism and the endpoints all certify that every
    /// cycle before `t` would be a pure no-op, jump the clock straight to
    /// `min(t, end)`. Returns whether the clock moved.
    fn maybe_fast_forward(&mut self, end: u64) -> bool {
        // The network's certificate also encodes the gates: fast-forward
        // disabled, tracing/per-cycle checks active, queued injections,
        // ejection backlog, or an allocation-eligible VC all yield
        // `None`. Telemetry no longer blocks the jump — elided sampling
        // boundaries collapse into one exact boundary sample below.
        let Some(net) = self.core.net_idle_until() else {
            return false;
        };
        let now = self.core.cycle();
        let mut t = net
            .min(self.mechanism.idle_until(&self.core))
            .min(self.endpoints.idle_until(&self.core))
            .min(end);
        // Instrumentation that is not idempotent pins its own horizon
        // while packets are in flight: the structural detector convicts
        // on *every* sweep boundary (`deadlocks_detected` grows), and the
        // watchdog's first trip must land on its exact cycle. An empty
        // network triggers neither.
        if self.core.packets_in_network() > 0 {
            let interval = self.core.config().deadlock_check_interval;
            if interval > 0 {
                t = t.min(now + (interval - 1 - now % interval));
            }
            let wd = self.core.config().watchdog_threshold;
            if wd > 0 && !self.core.stats.watchdog_deadlock {
                t = t.min(self.core.stats.last_progress_cycle.saturating_add(wd + 1));
            }
        }
        if t <= now {
            return false;
        }
        let skipped = t - now;
        // The jump elides cycles `[now, t)`; if a telemetry sampling
        // boundary falls in there, emit one sample stamped at the last
        // such boundary before the clock moves (the state is frozen
        // across the jump, so the sample is exact).
        self.core.telemetry_note_jump(t);
        self.core.fast_forward_to(t);
        // `skipped` mechanism control calls (each of which would have
        // returned `Normal`) were elided; let it rebase countdowns.
        self.mechanism.on_cycles_skipped(skipped);
        self.ff_cycles_skipped += skipped;
        self.ff_jumps += 1;
        true
    }

    /// Runs for up to `cycles` cycles, honouring early-stop conditions.
    pub fn run(&mut self, cycles: u64) -> RunOutcome {
        let end = self.core.cycle() + cycles;
        while self.core.cycle() < end {
            self.step();
            if self.violation.is_some() {
                return RunOutcome::InvariantViolation;
            }
            if self.stop_on_deadlock && self.core.stats.deadlocked() {
                return RunOutcome::Deadlocked;
            }
            if self.endpoints.finished(&self.core) {
                return RunOutcome::WorkloadFinished;
            }
            // Skip provably idle stretches. A jump cannot create work, but
            // it can reach the cycle at which a quiesced workload reports
            // completion — re-check so the outcome (and the cycle it is
            // reported at) matches per-cycle stepping exactly.
            if self.core.cycle() < end
                && self.maybe_fast_forward(end)
                && self.endpoints.finished(&self.core)
            {
                return RunOutcome::WorkloadFinished;
            }
        }
        RunOutcome::BudgetExhausted
    }

    /// Warm up, open the measurement window, then measure — the standard
    /// experiment shape. Returns the outcome of the measurement phase.
    pub fn warmup_and_measure(&mut self, warmup: u64, measure: u64) -> RunOutcome {
        let outcome = self.run(warmup);
        if outcome != RunOutcome::BudgetExhausted {
            return outcome;
        }
        self.open_measurement_window();
        self.run(measure)
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("core", &self.core)
            .field("mechanism", &self.mechanism.name())
            .field("endpoints", &self.endpoints.name())
            .finish()
    }
}
