//! The parallel sweep engine: expands figure grids into [`PointSpec`]
//! jobs, serves them from the [result cache](crate::cache) where
//! possible, fans the misses across worker threads, and accounts
//! everything into a [`RunReport`].
//!
//! ```no_run
//! use drain_bench::engine::SweepEngine;
//! use drain_bench::sweep::plan::TopoSpec;
//! use drain_bench::{Scale, Scheme};
//! use drain_netsim::traffic::SyntheticPattern;
//!
//! let mut engine = SweepEngine::new("fig10", Scale::Quick);
//! let points = engine.load_sweep(
//!     Scheme::Spin,
//!     &TopoSpec::Mesh { w: 8, h: 8 },
//!     &SyntheticPattern::UniformRandom,
//!     /*seed*/ 1,
//!     Scheme::DEFAULT_EPOCH,
//! );
//! let report = engine.finish(); // writes results/fig10.run.json
//! println!("{}", report.summary());
//! ```
//!
//! Determinism: a [`PointSpec`] fully determines its [`Point`] (topology,
//! seeds, scale — everything), and the runner writes results by input
//! index, so engine output is bit-identical to the serial
//! [`crate::sweep::load_sweep`] path no matter the thread count.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::cache::ResultCache;
use crate::report::RunReport;
use crate::runner;
use crate::scale::Scale;
use crate::scheme::Scheme;
use crate::sweep::plan::{load_sweep_specs, PointSpec, TopoSpec};
use crate::sweep::Point;
use drain_netsim::traffic::SyntheticPattern;
use drain_netsim::MetricsSnapshot;

/// Whether the engine should paint a live progress line on stderr:
/// `DRAIN_PROGRESS=0` disables it, `DRAIN_PROGRESS=1` forces it on, and
/// when unset it follows whether stderr is a terminal (so redirected/CI
/// runs stay clean).
fn progress_enabled() -> bool {
    crate::knobs::PROGRESS
        .get()
        .unwrap_or_else(|| std::io::stderr().is_terminal())
}

/// A `\r`-rewritten stderr progress line for one batch of jobs; a no-op
/// when [`progress_enabled`] says so.
struct Progress {
    enabled: bool,
    label: String,
    cached: usize,
    threads: usize,
    started: Instant,
    /// Busy wall nanoseconds accumulated by finished jobs (written by the
    /// worker that finished each job, read by `tick` for the live
    /// utilization figure).
    busy_nanos: AtomicU64,
}

impl Progress {
    fn new(label: &str, cached: usize, threads: usize) -> Progress {
        Progress {
            enabled: progress_enabled(),
            label: label.to_string(),
            cached,
            threads: threads.max(1),
            started: Instant::now(),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// Credits one finished job's wall time to the busy counter.
    fn note_busy(&self, nanos: u64) {
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Repaints the line; called from worker threads as jobs finish (each
    /// call writes under the stderr lock, so lines never interleave).
    fn tick(&self, done: usize, total: usize) {
        if !self.enabled {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r\x1b[K[{}] {done}/{total} simulated",
            self.label
        );
        if self.cached > 0 {
            let _ = write!(err, ", {} cached", self.cached);
        }
        let _ = write!(err, " | {elapsed:.1}s");
        if elapsed > 0.0 && done > 0 {
            let busy = self.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
            let util = (busy / (elapsed * self.threads as f64) * 100.0).min(100.0);
            let _ = write!(err, " | {:.1} pt/s | {util:.0}% util", done as f64 / elapsed);
        }
        let _ = err.flush();
    }

    /// Clears the line so subsequent output starts on a clean row.
    fn clear(&self) {
        if !self.enabled {
            return;
        }
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r\x1b[K");
        let _ = err.flush();
    }
}

/// Parallel, cached executor for one figure's experiments.
#[derive(Debug)]
pub struct SweepEngine {
    figure: String,
    scale: Scale,
    threads: usize,
    cache: ResultCache,
    started: Instant,
    total_points: usize,
    simulated: usize,
    cache_hits: usize,
    sim_cycles: u64,
    busy_secs: f64,
    max_job_ms: f64,
    queue_wait_secs: f64,
}

impl SweepEngine {
    /// Engine with environment defaults: `DRAIN_THREADS` workers and the
    /// `results/cache` result cache (`DRAIN_NO_CACHE`/`DRAIN_CACHE_DIR`
    /// honoured).
    pub fn new(figure: &str, scale: Scale) -> SweepEngine {
        SweepEngine::with(figure, scale, runner::worker_threads(), ResultCache::from_env())
    }

    /// Engine with explicit thread count and cache (tests; forced-serial
    /// or forced-cold runs).
    pub fn with(figure: &str, scale: Scale, threads: usize, cache: ResultCache) -> SweepEngine {
        SweepEngine {
            figure: figure.to_string(),
            scale,
            threads: threads.max(1),
            cache,
            started: Instant::now(),
            total_points: 0,
            simulated: 0,
            cache_hits: 0,
            sim_cycles: 0,
            busy_secs: 0.0,
            max_job_ms: 0.0,
            queue_wait_secs: 0.0,
        }
    }

    /// Worker threads this engine fans jobs across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every spec (cache first, then parallel simulation of the
    /// misses); `result[i]` corresponds to `specs[i]`.
    pub fn run_points(&mut self, specs: &[PointSpec]) -> Vec<Point> {
        self.total_points += specs.len();

        let mut results: Vec<Option<Point>> = specs.iter().map(|s| self.cache.lookup(s)).collect();
        let miss_idx: Vec<usize> = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_none().then_some(i))
            .collect();
        self.cache_hits += specs.len() - miss_idx.len();

        let misses: Vec<&PointSpec> = miss_idx.iter().map(|&i| &specs[i]).collect();
        let progress = Progress::new(&self.figure, specs.len() - miss_idx.len(), self.threads);
        let simulated = runner::run_indexed_progress(
            &misses,
            self.threads,
            |spec| {
                let t0 = Instant::now();
                let p = spec.run();
                progress.note_busy(t0.elapsed().as_nanos() as u64);
                p
            },
            |done, total| progress.tick(done, total),
        );
        progress.clear();

        for (&i, (point, timing)) in miss_idx.iter().zip(simulated) {
            self.cache.store(&specs[i], &point);
            self.simulated += 1;
            self.sim_cycles += specs[i].sim_cycles();
            let ms = timing.wall.as_secs_f64() * 1e3;
            self.busy_secs += timing.wall.as_secs_f64();
            self.queue_wait_secs += timing.wait.as_secs_f64();
            if ms > self.max_job_ms {
                self.max_job_ms = ms;
            }
            results[i] = Some(point);
        }

        results.into_iter().map(|r| r.expect("all slots filled")).collect()
    }

    /// Parallel, cached equivalent of [`crate::sweep::load_sweep`]: one
    /// point per rate in the scale's sweep.
    pub fn load_sweep(
        &mut self,
        scheme: Scheme,
        topo: &TopoSpec,
        pattern: &SyntheticPattern,
        seed: u64,
        epoch: u64,
    ) -> Vec<Point> {
        let specs = load_sweep_specs(scheme, topo, pattern, seed, epoch, self.scale);
        self.run_points(&specs)
    }

    /// Fans arbitrary non-cacheable jobs (application-model runs,
    /// deadlock probes) across the worker pool; `result[i]` corresponds
    /// to `jobs[i]`. `sim_cycles(job, result)` feeds the throughput
    /// metrics (results know how many cycles actually ran — closed-loop
    /// jobs stop early on quota or deadlock).
    pub fn run_jobs<J, R, F, C>(&mut self, jobs: &[J], f: F, sim_cycles: C) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
        C: Fn(&J, &R) -> u64,
    {
        self.total_points += jobs.len();
        self.simulated += jobs.len();
        let progress = Progress::new(&self.figure, 0, self.threads);
        let out = runner::run_indexed_progress(
            jobs,
            self.threads,
            |job| {
                let t0 = Instant::now();
                let r = f(job);
                progress.note_busy(t0.elapsed().as_nanos() as u64);
                r
            },
            |done, total| progress.tick(done, total),
        );
        progress.clear();
        out.into_iter()
            .enumerate()
            .map(|(i, (r, timing))| {
                self.sim_cycles += sim_cycles(&jobs[i], &r);
                let ms = timing.wall.as_secs_f64() * 1e3;
                self.busy_secs += timing.wall.as_secs_f64();
                self.queue_wait_secs += timing.wait.as_secs_f64();
                if ms > self.max_job_ms {
                    self.max_job_ms = ms;
                }
                r
            })
            .collect()
    }

    /// Closes the run: builds the [`RunReport`], writes
    /// `results/<figure>.run.json`, prints the one-line summary, and
    /// returns the report.
    pub fn finish(self) -> RunReport {
        let report = self.report();
        report.write();
        println!("\n{}", report.summary());
        report
    }

    /// Builds the [`RunReport`] without writing or printing anything.
    pub fn report(&self) -> RunReport {
        let wall = self.started.elapsed().as_secs_f64();
        RunReport {
            figure: self.figure.clone(),
            scale: self.scale.label().to_string(),
            threads: self.threads,
            total_points: self.total_points,
            simulated: self.simulated,
            cache_hits: self.cache_hits,
            sim_cycles: self.sim_cycles,
            wall_secs: wall,
            busy_secs: self.busy_secs,
            sim_cycles_per_sec: if wall > 0.0 {
                self.sim_cycles as f64 / wall
            } else {
                0.0
            },
            points_per_sec: if wall > 0.0 {
                self.total_points as f64 / wall
            } else {
                0.0
            },
            max_point_wall_ms: self.max_job_ms,
            mean_point_wall_ms: if self.simulated > 0 {
                self.busy_secs * 1e3 / self.simulated as f64
            } else {
                0.0
            },
            queue_wait_secs: self.queue_wait_secs,
            worker_utilization: if wall > 0.0 {
                (self.busy_secs / (wall * self.threads as f64)).min(1.0)
            } else {
                0.0
            },
        }
    }

    /// The engine's own counters as a mergeable [`MetricsSnapshot`] under
    /// the `drain_sweep_` namespace — per-job cache hit/miss, queue wait,
    /// worker utilization and throughput, ready to merge with per-point
    /// simulation snapshots and expose via Prometheus or JSONL.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let r = self.report();
        let mut m = MetricsSnapshot::new();
        m.counter_labeled(
            "drain_sweep_points_total",
            "Sweep points by source",
            &[("source", "simulated")],
            r.simulated as u64,
        );
        m.counter_labeled(
            "drain_sweep_points_total",
            "Sweep points by source",
            &[("source", "cached")],
            r.cache_hits as u64,
        );
        m.counter(
            "drain_sweep_sim_cycles_total",
            "Simulated cycles across sweep points",
            r.sim_cycles,
        );
        m.gauge(
            "drain_sweep_busy_seconds_total",
            "Summed job wall seconds across workers",
            r.busy_secs,
        );
        m.gauge(
            "drain_sweep_queue_wait_seconds_total",
            "Summed queue wait seconds across jobs",
            r.queue_wait_secs,
        );
        m.gauge(
            "drain_sweep_worker_utilization",
            "Busy fraction of the worker pool over the run",
            r.worker_utilization,
        );
        m.gauge(
            "drain_sweep_points_per_sec",
            "Sweep points completed per wall second",
            r.points_per_sec,
        );
        m.gauge(
            "drain_sweep_sim_cycles_per_sec",
            "Simulated cycles per wall second",
            r.sim_cycles_per_sec,
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep;

    fn tmp_cache(tag: &str) -> (std::path::PathBuf, ResultCache) {
        let dir = std::env::temp_dir().join(format!(
            "drain-engine-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.clone(), ResultCache::at(dir))
    }

    #[test]
    fn engine_sweep_matches_serial_sweep() {
        let topo_spec = TopoSpec::Mesh { w: 4, h: 4 };
        let pattern = SyntheticPattern::UniformRandom;
        let serial = sweep::load_sweep(
            Scheme::Spin,
            &topo_spec.build(),
            true,
            &pattern,
            3,
            Scheme::DEFAULT_EPOCH,
            Scale::Quick,
        );
        let mut engine =
            SweepEngine::with("enginetest", Scale::Quick, 4, ResultCache::disabled());
        let parallel = engine.load_sweep(
            Scheme::Spin,
            &topo_spec,
            &pattern,
            3,
            Scheme::DEFAULT_EPOCH,
        );
        assert_eq!(serial, parallel);
        let report = engine.report();
        assert_eq!(report.total_points, serial.len());
        assert_eq!(report.simulated, serial.len());
        assert_eq!(report.cache_hits, 0);
        assert!(report.sim_cycles > 0);
    }

    #[test]
    fn warm_cache_rerun_simulates_nothing() {
        let (dir, cache) = tmp_cache("warm");
        let topo_spec = TopoSpec::Mesh { w: 4, h: 4 };
        let pattern = SyntheticPattern::Neighbor;

        let mut cold = SweepEngine::with("coldrun", Scale::Quick, 2, cache);
        let first = cold.load_sweep(Scheme::Spin, &topo_spec, &pattern, 5, Scheme::DEFAULT_EPOCH);
        let cold_report = cold.report();
        assert_eq!(cold_report.simulated, first.len());
        assert_eq!(cold_report.cache_hits, 0);

        let mut warm = SweepEngine::with("warmrun", Scale::Quick, 2, ResultCache::at(&dir));
        let second = warm.load_sweep(Scheme::Spin, &topo_spec, &pattern, 5, Scheme::DEFAULT_EPOCH);
        let warm_report = warm.report();
        assert_eq!(second, first, "cached points must be bit-identical");
        assert_eq!(warm_report.simulated, 0, "warm rerun must simulate nothing");
        assert_eq!(warm_report.cache_hits, first.len());
        assert_eq!(warm_report.sim_cycles, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_jobs_preserves_order_and_counts() {
        let mut engine =
            SweepEngine::with("jobs", Scale::Quick, 3, ResultCache::disabled());
        let jobs: Vec<u64> = (0..20).collect();
        let out = engine.run_jobs(&jobs, |&j| j + 100, |_, _| 10);
        assert_eq!(out, (100..120).collect::<Vec<u64>>());
        let report = engine.report();
        assert_eq!(report.total_points, 20);
        assert_eq!(report.simulated, 20);
        assert_eq!(report.sim_cycles, 200);
    }
}
