//! The repository benchmark: runs one workload's grid of independent
//! simulation points cold (result cache off, one sweep-engine worker per
//! CPU, one process), times each layer from outside through its public
//! calls, checks every point, and prints every metric by name with its
//! unit. The last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lowload_mesh --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced grid runs;
//! `--trace 1` alternates untraced and traced grid runs and reports the
//! per-layer metrics. See `perfbench/NOTES.md`.

mod grid;
mod measure;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use drain_bench::cache::ResultCache;
use drain_bench::engine::SweepEngine;
use drain_bench::Scale;

use crate::grid::Job;
use crate::measure::{figure_path_matches, run_job, Record};
use crate::stats::{Metric, Rep};

/// Environment knobs `Scheme::build` reads; any of them would change what
/// is measured, so the benchmark refuses to start while one is set.
const KNOBS: [&str; 4] = [
    "DRAIN_SHARDS",
    "DRAIN_PHASE_A",
    "DRAIN_RNG",
    "DRAIN_PROFILE",
];

/// Grid runs per measurement (per kind on traced runs), whatever the
/// time budget, so medians and the same-seed comparison always have data.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// The knobs in `env` that are set.
fn stray_knobs(env: impl Iterator<Item = (String, String)>) -> Vec<String> {
    env.filter(|(k, _)| KNOBS.contains(&k.as_str()))
        .map(|(k, v)| format!("{k}={v}"))
        .collect()
}

/// The commit the benchmark was built from, `-dirty` when tracked files
/// differ from it; unstamped outside a git checkout.
fn commit_stamp() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if changes.is_empty() => head,
            Some(_) => format!("{head}-dirty"),
            None => format!("{head}-unknown-state"),
        },
        None => "unstamped (not a git checkout)".to_string(),
    }
}

/// Hands the allocator's free memory back to the OS. Each grid run spawns
/// fresh workers, which glibc may pair with another run's per-thread
/// arena; without this, memory freed in one arena but needed in another
/// makes the peak RSS depend on that pairing instead of on the grid.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers, is thread-safe,
        // and only returns free heap pages to the OS.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One cold run of the whole grid on a fresh engine, on a trimmed heap.
fn run_rep(workload: &str, jobs: &[Job], threads: usize, traced: bool) -> Rep {
    let mut engine = SweepEngine::with(workload, Scale::Quick, threads, ResultCache::disabled());
    let t = Instant::now();
    let records: Vec<Record> = engine.run_jobs(
        jobs,
        |job| run_job(job, traced),
        |_, r: &Record| r.sim_cycles,
    );
    let wall_s = t.elapsed().as_secs_f64();
    let report = engine.report();
    release_free_memory();
    Rep {
        wall_s,
        busy_s: report.busy_secs,
        queue_wait_s: report.queue_wait_secs,
        utilization: report.worker_utilization,
        records,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                grid::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let knobs = stray_knobs(std::env::vars());
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with simulator knobs set: {}",
            knobs.join(" ")
        );
        return ExitCode::from(2);
    }
    let Some(jobs) = grid::generate(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            grid::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        plain.push(run_rep(&args.workload, &jobs, threads, false));
        if args.trace {
            traced.push(run_rep(&args.workload, &jobs, threads, true));
        }
        let done = plain.len();
        let per_round = start.elapsed() / done as u32;
        if done >= MIN_REPS && start.elapsed() + per_round > budget {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    let first = &plain[0];
    // Every grid ends with a cheap point the figure path can express.
    let last = jobs.len() - 1;
    let figure_path = match &first.records[last].outcome {
        Some(outcome) => figure_path_matches(&jobs[last], outcome),
        None => false,
    };
    let reps: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let same_results = reps
        .iter()
        .all(|r| r.digest() == first.digest() && r.counter_sums() == first.counter_sums());
    let attempted: usize = reps.iter().map(|r| r.records.len()).sum();
    let failed: usize = reps.iter().map(|r| r.failed()).sum();

    println!(
        "perfbench workload={} seed={} points={} workers={threads} (available_parallelism) cache=off config=default commit={}",
        args.workload,
        args.seed,
        jobs.len(),
        commit_stamp()
    );
    let walls = |reps: &[Rep]| {
        reps.iter()
            .map(|r| format!("{:.3}", r.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "measured {measured_s:.2} s: untraced grid runs [{}] s, traced grid runs [{}] s",
        walls(&plain),
        walls(&traced)
    );
    stats::print_checks(first, figure_path, same_results, failed, attempted);
    stats::print_counters(first);

    let metrics: Vec<Metric> = if args.trace {
        let layers = stats::per_layer(&plain, &traced, threads);
        stats::write_spans(&args.workload, args.seed, &traced);
        layers
    } else {
        stats::end_to_end(&plain, MIN_REPS)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && figure_path && same_results && finite;
    println!(
        "{}",
        stats::result_json(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, &str)]) -> impl Iterator<Item = (String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn every_knob_blocks_the_run() {
        for knob in KNOBS {
            assert_eq!(
                stray_knobs(env(&[("PATH", "/bin"), (knob, "1")])),
                vec![format!("{knob}=1")]
            );
        }
        assert!(stray_knobs(env(&[("DRAIN_THREADS", "4"), ("HOME", "/")])).is_empty());
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload lowload_mesh --seed 3 --seconds 5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("lowload_mesh", 3, 5, true)
        );
        assert!(parse_args(&argv("--workload x --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
    }

    #[test]
    fn a_sabotaged_drain_point_fails_without_aborting_the_run() {
        use drain_bench::scheme::DrainVariant;
        use drain_bench::sweep::plan::{PointSpec, TopoSpec};
        use drain_bench::Scheme;
        use drain_netsim::traffic::SyntheticPattern;

        let spec = |seed| {
            PointSpec::new(
                Scheme::Drain(DrainVariant::Vn1Vc2),
                TopoSpec::Mesh { w: 4, h: 4 },
                SyntheticPattern::UniformRandom,
                0.1,
                seed,
                Scale::Quick,
            )
            .with_epoch(256)
        };
        let jobs = vec![
            Job::Point(spec(1)),
            Job::Sabotaged(spec(2)),
            Job::Point(spec(3)),
        ];
        let rep = run_rep("selftest", &jobs, 2, false);
        assert_eq!(rep.records.len(), 3, "every point ran");
        assert_eq!(rep.failed(), 1, "exactly the sabotaged point failed");
        let why = rep.records[1]
            .failure
            .as_deref()
            .expect("sabotaged point failed");
        assert!(why.contains("forced"), "{why}");
        assert!(rep.records[0].failure.is_none() && rep.records[2].failure.is_none());
    }

    #[test]
    fn timed_path_matches_the_figure_path() {
        for w in grid::WORKLOADS {
            let jobs = grid::generate(w, 5).expect("known workload");
            let last = jobs.last().expect("grids are not empty");
            let rec = run_job(last, true);
            assert!(rec.failure.is_none(), "{w}: {:?}", rec.failure);
            assert!(figure_path_matches(last, &rec.outcome.expect("ran")), "{w}");
        }
    }
}
