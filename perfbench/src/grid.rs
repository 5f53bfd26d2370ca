//! Seeded workload grids: the benchmark seed picks every fault pattern,
//! random-topology seed and simulation seed; the program only ever sees
//! the generated [`PointSpec`]s and [`AppSpec`]s.

use drain_bench::scheme::DrainVariant;
use drain_bench::sweep::plan::{PointSpec, TopoSpec};
use drain_bench::{Scale, Scheme};
use drain_netsim::traffic::SyntheticPattern;
use drain_topology::Topology;
use drain_workloads::{parsec, splash2, AppModel};

/// Every workload the benchmark knows, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "lowload_mesh",
    "saturated_mesh",
    "irregular_large",
    "coherence_apps",
];

/// The short drain epoch of the Fig 14 points: drain windows and forced
/// moves actually run inside an 11K-cycle point (at the 64K default no
/// drain fires).
pub const SHORT_EPOCH: u64 = 1_024;

/// One closed-loop application run, owning what
/// [`drain_bench::apps::AppJob`] borrows.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Evaluated scheme.
    pub scheme: Scheme,
    /// Application model.
    pub app: AppModel,
    /// Fault-free base topology.
    pub base: Topology,
    /// Links removed from `base` (0 = pristine).
    pub faults: usize,
    /// Simulation and fault-injection seed.
    pub seed: u64,
    /// Drain epoch (the figures use [`Scheme::DEFAULT_EPOCH`]).
    pub epoch: u64,
}

/// One independent point of a workload grid.
#[derive(Clone, Debug)]
pub enum Job {
    /// An open-loop synthetic operating point (Figs 10/11/14, §VI).
    Point(PointSpec),
    /// A closed-loop application run (Fig 13).
    App(AppSpec),
    /// A DRAIN point whose turn table is corrupted, run with forced-move
    /// checks on: it must fail, and the run must carry on.
    #[cfg(test)]
    Sabotaged(PointSpec),
}

/// splitmix64 of `seed` salted by a stream tag and an index: independent,
/// reproducible sub-seeds for every slot of a grid.
fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z =
        seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F) ^ i.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn point(
    scheme: Scheme,
    topo: TopoSpec,
    pattern: SyntheticPattern,
    rate: f64,
    seed: u64,
) -> PointSpec {
    PointSpec::new(scheme, topo, pattern, rate, seed, Scale::Quick)
}

/// The Fig 11 grid (8×8 mesh, 0/1/4/8/12 faults, uniform-random and
/// transpose, 2% open-loop injection, headline schemes) plus the Fig 14
/// ablation's low-load DRAIN points at a short epoch.
fn lowload_mesh(seed: u64) -> Vec<Job> {
    const PATTERNS_PER_CELL: u64 = 5;
    let mut jobs = Vec::new();
    for pattern in [SyntheticPattern::UniformRandom, SyntheticPattern::Transpose] {
        for faults in [0usize, 1, 4, 8, 12] {
            for scheme in Scheme::headline() {
                for k in 0..PATTERNS_PER_CELL {
                    let s = mix(seed, 11, faults as u64 * 100 + k);
                    let topo = TopoSpec::mesh_with_faults(8, 8, faults, s);
                    jobs.push(Job::Point(point(scheme, topo, pattern.clone(), 0.02, s)));
                }
            }
        }
    }
    let drain = Scheme::Drain(DrainVariant::Vn1Vc2);
    for hops in [1u32, 2, 4] {
        for k in 0..3 {
            let s = mix(seed, 14, hops as u64 * 100 + k);
            let spec = point(
                drain,
                TopoSpec::Mesh { w: 8, h: 8 },
                SyntheticPattern::UniformRandom,
                0.02,
                s,
            )
            .with_epoch(SHORT_EPOCH)
            .with_hops(hops);
            jobs.push(Job::Point(spec));
        }
    }
    jobs
}

/// The Fig 10 grid at and beyond saturation (8×8 mesh, 0/4/12 faults,
/// rates 0.24–0.44, headline schemes) plus Fig 14-style DRAIN points at a
/// short epoch. Point cost grows with the rate; with three rates the
/// median point lies inside the middle rate's cluster, not between two.
fn saturated_mesh(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for faults in [0usize, 4, 12] {
        let s = mix(seed, 10, faults as u64);
        let topo = TopoSpec::mesh_with_faults(8, 8, faults, s);
        for scheme in Scheme::headline() {
            for (i, rate) in [0.24, 0.34, 0.44].into_iter().enumerate() {
                let sim_seed = mix(seed, 100, faults as u64 * 10 + i as u64);
                jobs.push(Job::Point(point(
                    scheme,
                    topo.clone(),
                    SyntheticPattern::UniformRandom,
                    rate,
                    sim_seed,
                )));
            }
        }
        let spec = point(
            Scheme::Drain(DrainVariant::Vn1Vc2),
            topo,
            SyntheticPattern::UniformRandom,
            0.34,
            mix(seed, 140, faults as u64),
        )
        .with_epoch(SHORT_EPOCH);
        jobs.push(Job::Point(spec));
    }
    jobs
}

/// The §VI grid scaled up: random topologies from 64 to 1 024 routers
/// plus the chiplet system, headline schemes, a low and a saturating rate
/// (low only at 1 024 routers, where one saturating point alone costs
/// more than the whole grid), and short-epoch DRAIN points. Largest
/// topologies first: both workers start on a 1 024-router point in every
/// grid run, so the peak memory does not hinge on scheduling.
fn irregular_large(seed: u64) -> Vec<Job> {
    const LOW: f64 = 0.02;
    const SATURATING: f64 = 0.20;
    let random = |i: u64, n: u16| TopoSpec::Random {
        n,
        degree_milli: 4000,
        seed: mix(seed, 60, i),
    };
    let chiplet = TopoSpec::Chiplet {
        seed: mix(seed, 61, 0),
    };
    let cells = [
        (random(3, 1024), &[LOW][..]),
        (random(2, 256), &[LOW, SATURATING][..]),
        (chiplet, &[LOW, SATURATING][..]),
        (random(0, 64), &[LOW, SATURATING][..]),
        (random(1, 64), &[LOW, SATURATING][..]),
    ];
    let mut jobs = Vec::new();
    for (t, (topo, rates)) in cells.iter().enumerate() {
        for scheme in Scheme::headline() {
            for (i, &rate) in rates.iter().enumerate() {
                let s = mix(seed, 62, t as u64 * 10 + i as u64);
                jobs.push(Job::Point(point(
                    scheme,
                    topo.clone(),
                    SyntheticPattern::UniformRandom,
                    rate,
                    s,
                )));
            }
        }
    }
    for (t, (topo, _)) in cells.iter().skip(3).enumerate() {
        let s = mix(seed, 63, t as u64);
        let spec = point(
            Scheme::Drain(DrainVariant::Vn1Vc2),
            topo.clone(),
            SyntheticPattern::UniformRandom,
            SATURATING,
            s,
        )
        .with_epoch(SHORT_EPOCH);
        jobs.push(Job::Point(spec));
    }
    jobs
}

/// The Fig 13 grid: PARSEC/SPLASH-2 app models on a 4×4 mesh with 0 and
/// 8 faults, closed loop until the quick scale's per-core quota, plus a
/// DRAIN (VN-1,VC-2) run per cell at a short epoch so drain windows fire
/// inside an application run (at the 64K default none does).
fn coherence_apps(seed: u64) -> Vec<Job> {
    let base = Topology::mesh(4, 4);
    let mut apps = parsec();
    apps.extend(splash2());
    let schemes = [
        Scheme::EscapeVc,
        Scheme::Spin,
        Scheme::Drain(DrainVariant::Vn3Vc2),
        Scheme::Drain(DrainVariant::Vn1Vc6),
        Scheme::Drain(DrainVariant::Vn1Vc2),
    ];
    let mut jobs = Vec::new();
    for faults in [0usize, 8] {
        for (a, app) in apps.iter().take(8).enumerate() {
            let short = (Scheme::Drain(DrainVariant::Vn1Vc2), SHORT_EPOCH);
            let cell = std::iter::once(short).chain(schemes.map(|s| (s, Scheme::DEFAULT_EPOCH)));
            for (k, (scheme, epoch)) in cell.enumerate() {
                jobs.push(Job::App(AppSpec {
                    scheme,
                    app: app.clone(),
                    base: base.clone(),
                    faults,
                    seed: mix(seed, 13, (faults * 100 + a * 10 + k) as u64),
                    epoch,
                }));
            }
        }
    }
    jobs
}

/// The grid of `workload` for `seed`, or `None` for an unknown name.
pub fn generate(workload: &str, seed: u64) -> Option<Vec<Job>> {
    Some(match workload {
        "lowload_mesh" => lowload_mesh(seed),
        "saturated_mesh" => saturated_mesh(seed),
        "irregular_large" => irregular_large(seed),
        "coherence_apps" => coherence_apps(seed),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything about a job except its seeds.
    fn shape(job: &Job) -> String {
        match job {
            Job::Point(p) => {
                let topo = match p.topo {
                    TopoSpec::Mesh { w, h } => format!("mesh{w}x{h}"),
                    TopoSpec::FaultyMesh { w, h, faults, .. } => format!("mesh{w}x{h}f{faults}"),
                    TopoSpec::Random {
                        n, degree_milli, ..
                    } => format!("rand{n}d{degree_milli}"),
                    TopoSpec::Chiplet { .. } => "chiplet".into(),
                };
                format!(
                    "{:?}|{topo}|{}|{}|{}|{}",
                    p.scheme,
                    p.pattern.name(),
                    p.rate,
                    p.epoch,
                    p.hops_per_drain
                )
            }
            Job::App(a) => format!("{:?}|{}|{}|{}", a.scheme, a.app.name, a.faults, a.epoch),
            Job::Sabotaged(_) => unreachable!("grids hold no sabotaged points"),
        }
    }

    fn fault_sets(jobs: &[Job]) -> Vec<String> {
        jobs.iter()
            .filter_map(|j| match j {
                Job::Point(p) if !matches!(p.topo, TopoSpec::Mesh { .. }) => {
                    Some(p.topo.key_material())
                }
                Job::App(a) if a.faults > 0 => Some(format!("app:s{}", a.seed)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn two_seeds_give_the_same_shape_but_different_fault_sets() {
        for w in WORKLOADS {
            let a = generate(w, 1).expect("known workload");
            let b = generate(w, 2).expect("known workload");
            assert!(!a.is_empty(), "{w}");
            let sa: Vec<String> = a.iter().map(shape).collect();
            let sb: Vec<String> = b.iter().map(shape).collect();
            assert_eq!(sa, sb, "{w}: the seed must not change the grid shape");
            let (fa, fb) = (fault_sets(&a), fault_sets(&b));
            assert!(
                !fa.is_empty(),
                "{w}: every grid has faulty or random topologies"
            );
            assert!(
                fa.iter().zip(&fb).all(|(x, y)| x != y),
                "{w}: every fault set must move with the seed"
            );
        }
    }

    #[test]
    fn same_seed_gives_the_same_grid() {
        for w in WORKLOADS {
            let a: Vec<String> = fault_sets(&generate(w, 7).expect("known workload"));
            let b: Vec<String> = fault_sets(&generate(w, 7).expect("known workload"));
            assert_eq!(a, b, "{w}");
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(generate("nope", 1).is_none());
    }
}
